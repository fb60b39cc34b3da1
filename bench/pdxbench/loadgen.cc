#include "loadgen.h"

#include <thread>

#include "serve/client.h"

namespace pdxbench {

namespace {

double MsBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

void DriveConnection(const std::string& address,
                     const std::vector<ScriptedRequest>& requests, int conn,
                     int connections,
                     std::chrono::steady_clock::time_point start,
                     std::vector<Outcome>* outcomes) {
  auto client = pdx::serve::Client::Connect(address);
  for (size_t i = 0; i < requests.size(); ++i) {
    const ScriptedRequest& req = requests[i];
    if (req.slot % connections != conn) continue;
    auto due = start + std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(req.due_s));
    std::this_thread::sleep_until(due);
    auto sent = std::chrono::steady_clock::now();
    Outcome& out = (*outcomes)[i];
    if (client.ok()) {
      auto reply = client->CallRaw(req.line);
      if (reply.ok()) {
        out.transport_ok = true;
        out.reply = std::move(reply).value();
      }
    }
    auto done = std::chrono::steady_clock::now();
    out.late_ms = std::max(0.0, MsBetween(due, sent));
    out.latency_ms = MsBetween(due, done);
    out.service_ms = MsBetween(sent, done);
  }
}

}  // namespace

std::vector<Outcome> RunOpenLoop(
    const std::string& address, const std::vector<ScriptedRequest>& requests,
    int connections, std::chrono::steady_clock::time_point start) {
  std::vector<Outcome> outcomes(requests.size());
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (int c = 0; c < connections; ++c) {
    // Each thread writes only the outcomes of its own connection's
    // requests, so the shared vector needs no lock.
    threads.emplace_back(DriveConnection, std::cref(address),
                         std::cref(requests), c, connections, start,
                         &outcomes);
  }
  for (std::thread& t : threads) t.join();
  return outcomes;
}

}  // namespace pdxbench

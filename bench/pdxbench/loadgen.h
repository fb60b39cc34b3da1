#ifndef PDXBENCH_LOADGEN_H_
#define PDXBENCH_LOADGEN_H_

// Open-loop load generator for pdxd: one thread per connection, each
// sending its requests at their scheduled due
// times whether or not earlier replies were slow. Latency is measured from
// the due time, so a stall is charged to every request it delays; how
// late the generator itself sent each request is recorded beside it.

#include <chrono>
#include <string>
#include <vector>

#include "gen.h"
#include "serve/json.h"

namespace pdxbench {

struct Outcome {
  double latency_ms = 0;  // due time -> reply
  double service_ms = 0;  // send -> reply
  double late_ms = 0;     // due time -> send (generator lateness)
  bool transport_ok = false;
  pdx::serve::JsonValue reply;
};

// Sends `requests` (ordered by due time) to `address` over `connections`
// connections, with due times relative to `start`. Returns one outcome per
// request, in request order.
std::vector<Outcome> RunOpenLoop(
    const std::string& address, const std::vector<ScriptedRequest>& requests,
    int connections, std::chrono::steady_clock::time_point start);

}  // namespace pdxbench

#endif  // PDXBENCH_LOADGEN_H_

#include "gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <tuple>

namespace pdxbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::Exponential(double rate) {
  // 1 - Unit() lies in (0, 1], so the log is finite.
  return -std::log(1.0 - Unit()) / rate;
}

uint64_t Fnv1a64(std::string_view text, uint64_t hash) {
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

namespace {

// Per-workload salts keep the workloads' random streams independent even
// when they share a seed.
constexpr uint64_t kServeSalt = 0x5e7e;
constexpr uint64_t kBulkSalt = 0xb01c;
constexpr uint64_t kEgdSalt = 0xe6d;
constexpr uint64_t kNpSalt = 0x4e9;

uint64_t ProteinHash(uint64_t seed, int64_t id) {
  Rng rng(seed * 0x2545f4914f6cdd1dull + static_cast<uint64_t>(id));
  return rng.Next();
}

struct ProteinTerms {
  const char* organism;
  int go_a;
  int go_b;
};

ProteinTerms TermsOf(uint64_t seed, int64_t id) {
  static const char* kOrganisms[] = {"human", "mouse", "yeast", "ecoli",
                                     "fly"};
  uint64_t h = ProteinHash(seed, id);
  int go_a = static_cast<int>((h >> 8) % 1000);
  int go_b = static_cast<int>((go_a + 1 + (h >> 24) % 999) % 1000);
  return {kOrganisms[h % 5], go_a, go_b};
}

std::string Format(const char* fmt, auto... args) {
  char buffer[256];
  int n = std::snprintf(buffer, sizeof(buffer), fmt, args...);
  if (n < 0) return std::string();
  return std::string(buffer,
                     std::min(static_cast<size_t>(n), sizeof(buffer) - 1));
}

}  // namespace

const char kGenomicsSetting[] =
    "[source]\n"
    "SPProtein/3\n"
    "SPAnnotation/2\n"
    "[target]\n"
    "Protein/2\n"
    "Organism/2\n"
    "Annotation/3\n"
    "[st]\n"
    "SPProtein(a,n,o) -> Protein(a,n) & Organism(a,o).\n"
    "SPAnnotation(a,g) -> exists e: Annotation(a,g,e).\n"
    "[ts]\n"
    "Protein(a,n) -> exists o: SPProtein(a,n,o).\n"
    "Annotation(a,g,e) -> exists n,o: SPProtein(a,n,o) & SPAnnotation(a,g).\n";

std::string ProteinFacts(uint64_t seed, int64_t id) {
  ProteinTerms t = TermsOf(seed, id);
  long long n = id;
  return Format(
      "SPProtein(P%lld, pn%lld, %s). SPAnnotation(P%lld, GO_%d). "
      "SPAnnotation(P%lld, GO_%d).",
      n, n, t.organism, n, t.go_a, n, t.go_b);
}

std::string ProteinProbe(int64_t id) {
  long long n = id;
  return Format("Protein(P%lld, pn%lld).", n, n);
}

std::string BackedAnnotation(uint64_t seed, int64_t id) {
  return Format("Annotation(P%lld, GO_%d, curated).",
                static_cast<long long>(id), TermsOf(seed, id).go_a);
}

std::string AnnotationQuery(int64_t id) {
  return Format("q(g) :- Annotation('P%lld', g, e).",
                static_cast<long long>(id));
}

const char* VerbName(Verb verb) {
  switch (verb) {
    case Verb::kContains:
      return "contains";
    case Verb::kExists:
      return "exists";
    case Verb::kCertain:
      return "certain";
    case Verb::kWrite:
      return "write";
    case Verb::kRetract:
      return "retract";
  }
  return "?";
}

bool IsRead(Verb verb) {
  return verb == Verb::kContains || verb == Verb::kExists ||
         verb == Verb::kCertain;
}

namespace {

// One connection's churn pool: the proteins only it writes and retracts.
struct ChurnPool {
  std::vector<int64_t> present;
  std::vector<int64_t> absent;
  int64_t next_fresh = 0;

  int64_t Take(std::vector<int64_t>* from, Rng* rng) {
    size_t i = rng->Below(from->size());
    int64_t id = (*from)[i];
    (*from)[i] = from->back();
    from->pop_back();
    return id;
  }
  // A protein of the pool and whether it is present right now.
  std::pair<int64_t, bool> Pick(Rng* rng) const {
    size_t i = rng->Below(present.size() + absent.size());
    if (i < present.size()) return {present[i], true};
    return {absent[i - present.size()], false};
  }
};

}  // namespace

ServeInput MakeServeInput(const ServeShape& shape, uint64_t seed, double rate,
                          double duration_s, const std::string& tenant_id) {
  ServeInput input;
  input.setting = kGenomicsSetting;
  input.tenant = tenant_id;
  const int64_t base = shape.base_proteins;
  const int64_t stable = base / 2;
  std::vector<ChurnPool> pools(kSlots);
  for (int64_t id = 0; id < base; ++id) {
    input.base += ProteinFacts(seed, id);
    input.base += '\n';
    if (id < stable && id % 5 == 0) {
      input.base += BackedAnnotation(seed, id);
      input.base += '\n';
    }
    if (id >= stable) pools[(id - stable) % kSlots].present.push_back(id);
  }
  for (int s = 0; s < kSlots; ++s) {
    // Fresh proteins of slot s: base + s, base + s + kSlots, ...
    pools[s].next_fresh = base + s;
  }

  // The load shape (arrival times, slots and verbs) comes from its own
  // stream, fixed per workload; the seed picks the data: which proteins
  // each request writes, retracts and probes.
  Rng shape_rng(kServeSalt);
  Rng rng(seed ^ kServeSalt);
  int total_weight = 0;
  for (int w : shape.mix) total_weight += w;
  // The hash covers the first kHashedLines requests of the stream, which
  // are generated even when the run is shorter, so it does not depend on
  // the run's length.
  constexpr int64_t kHashedLines = 256;
  uint64_t h = Fnv1a64(input.base, Fnv1a64(input.setting));
  double t = 0;
  for (int64_t n = 0;; ++n) {
    t += shape_rng.Exponential(rate);
    if (t >= duration_s && n >= kHashedLines) break;
    ScriptedRequest req;
    req.slot = static_cast<int>(shape_rng.Below(kSlots));
    req.due_s = t;
    int draw = static_cast<int>(shape_rng.Below(total_weight));
    int verb = 0;
    while (draw >= shape.mix[verb]) draw -= shape.mix[verb++];
    req.verb = static_cast<Verb>(verb);
    ChurnPool& pool = pools[req.slot];
    if (req.verb == Verb::kRetract && pool.present.empty()) {
      req.verb = Verb::kWrite;
    }
    std::string fields;
    switch (req.verb) {
      case Verb::kContains: {
        int64_t kind = rng.Below(3);
        if (kind == 0) {
          req.text = ProteinProbe(rng.Below(stable));
          req.expect.contains = true;
        } else if (kind == 1) {
          auto [id, present] = pool.Pick(&rng);
          req.text = ProteinProbe(id);
          req.expect.contains = present;
        } else {
          long long q = static_cast<long long>(rng.Below(1'000'000));
          req.text = Format("Protein(Q%lld, qn%lld).", q, q);
          req.expect.contains = false;
        }
        fields = "\"facts\":\"" + req.text + "\"";
        break;
      }
      case Verb::kCertain: {
        int64_t id;
        bool present = true;
        if (rng.Below(2) == 0) {
          id = static_cast<int64_t>(rng.Below(stable));
        } else {
          std::tie(id, present) = pool.Pick(&rng);
        }
        req.text = AnnotationQuery(id);
        req.expect.answers = present ? 2 : 0;
        fields = "\"query\":\"" + req.text + "\",\"mode\":\"lower_bound\"";
        break;
      }
      case Verb::kExists:
        fields = "\"solver\":\"auto\"";
        break;
      case Verb::kWrite: {
        int64_t id;
        if (!pool.absent.empty()) {
          id = pool.Take(&pool.absent, &rng);
        } else {
          id = pool.next_fresh;
          pool.next_fresh += kSlots;
        }
        pool.present.push_back(id);
        req.text = ProteinFacts(seed, id);
        fields = "\"facts\":\"" + req.text + "\"";
        break;
      }
      case Verb::kRetract: {
        int64_t id = pool.Take(&pool.present, &rng);
        pool.absent.push_back(id);
        req.text = ProteinFacts(seed, id);
        fields = "\"facts\":\"" + req.text + "\"";
        break;
      }
    }
    req.line = "{\"id\":" + std::to_string(n) + ",\"verb\":\"" +
               VerbName(req.verb) + "\",\"tenant\":\"" + tenant_id + "\"," +
               fields + "}";
    if (n < kHashedLines) h = Fnv1a64(req.line, h);
    if (t < duration_s) input.requests.push_back(std::move(req));
  }
  input.hash = h;
  return input;
}

BulkInput MakeBulkInput(uint64_t seed, int64_t proteins, int64_t backed) {
  BulkInput input;
  input.setting = kGenomicsSetting;
  input.source.reserve(static_cast<size_t>(proteins) * 96);
  for (int64_t id = 0; id < proteins; ++id) {
    input.source += ProteinFacts(seed, id);
    input.source += '\n';
  }
  std::vector<int64_t> ids(static_cast<size_t>(proteins));
  std::iota(ids.begin(), ids.end(), 0);
  Rng rng(seed ^ kBulkSalt);
  backed = std::min(backed, proteins);
  for (int64_t i = 0; i < backed; ++i) {
    std::swap(ids[i], ids[i + rng.Below(proteins - i)]);
    input.target += BackedAnnotation(seed, ids[i]);
    input.target += '\n';
  }
  input.source_facts = 3 * proteins;
  // J_can = J + Protein + Organism + the 2P - |J| annotations J does not
  // already hold. I_can: one SPProtein per Protein, and per annotation a
  // fresh SPProtein plus its SPAnnotation (GO terms are distinct per
  // protein, so no Σts trigger is satisfied in advance).
  input.expected_j_can = 4 * proteins;
  input.expected_i_can = 5 * proteins;
  input.hash = Fnv1a64(input.target, Fnv1a64(input.source,
                                             Fnv1a64(input.setting)));
  return input;
}

EgdInput MakeEgdInput(uint64_t seed, int64_t nodes, int out_degree) {
  EgdInput input;
  input.setting =
      "[source]\n"
      "E/2\n"
      "[target]\n"
      "H/2\n"
      "F/2\n"
      "[st]\n"
      "E(x,y) -> exists z: H(x,z) & F(y,z).\n"
      "[t]\n"
      "H(x,y) & H(x,z) -> y = z.\n"
      "F(x,y) & F(x,z) -> y = z.\n";
  Rng rng(seed ^ kEgdSalt);
  std::vector<bool> has_in(static_cast<size_t>(nodes), false);
  for (int64_t x = 0; x < nodes; ++x) {
    int64_t picked[8];
    for (int k = 0; k < out_degree; ++k) {
      int64_t y;
      do {
        y = static_cast<int64_t>(rng.Below(nodes));
      } while (y == x || std::find(picked, picked + k, y) != picked + k);
      picked[k] = y;
      has_in[y] = true;
      input.facts += Format("E(n%lld, n%lld).\n", static_cast<long long>(x),
                            static_cast<long long>(y));
    }
  }
  input.edges = nodes * out_degree;
  int64_t sinks = std::count(has_in.begin(), has_in.end(), true);
  input.expected_resolved = input.edges + nodes + sinks;
  input.hash = Fnv1a64(input.facts, Fnv1a64(input.setting));
  return input;
}

NpInput MakeNpInput(uint64_t seed, int rounds) {
  NpInput input;
  input.setting =
      "[source]\n"
      "D/2\n"
      "E/2\n"
      "[target]\n"
      "P/4\n"
      "[st]\n"
      "D(x,y) -> exists z,w: P(x,z,y,w).\n"
      "[ts]\n"
      "P(x,z,y,w) -> E(z,w).\n"
      "[t]\n"
      "P(x,z,y,w) & P(x,z2,y2,w2) -> z = z2.\n"
      "P(x,z,y,w) & P(y,z2,y2,w2) -> w = z2.\n";
  for (int i = 1; i <= 3; ++i) {
    for (int j = 1; j <= 3; ++j) {
      if (i != j) input.facts += Format("D(a%d, a%d). ", i, j);
    }
  }
  // The path v[0] - v[1] - v[2] - v[3] with seeded node names.
  Rng rng(seed ^ kNpSalt);
  long long names[4];
  for (int i = 0; i < 4; ++i) {
    bool fresh;
    do {
      names[i] = static_cast<long long>(rng.Below(10'000));
      fresh = std::find(names, names + i, names[i]) == names + i;
    } while (!fresh);
  }
  std::vector<std::string> edges;
  for (int i = 0; i + 1 < 4; ++i) {
    std::string edge = Format("E(v%lld, v%lld). E(v%lld, v%lld).", names[i],
                              names[i + 1], names[i + 1], names[i]);
    input.facts += edge + " ";
    edges.push_back(edge);
  }
  // Every seed cycles through the edges in path order, so the search work
  // does not depend on the seed.
  for (int r = 0; r < rounds; ++r) {
    input.rounds.push_back(edges[r % edges.size()]);
  }
  uint64_t h = Fnv1a64(input.facts, Fnv1a64(input.setting));
  for (const std::string& round : input.rounds) h = Fnv1a64(round, h);
  input.hash = h;
  return input;
}

}  // namespace pdxbench

#ifndef PDXBENCH_GEN_H_
#define PDXBENCH_GEN_H_

// Bench-owned input generators. Every workload's setting and facts are
// produced here as text from --seed, with no dependency on src/workload/,
// so a later change to the library cannot shift what the benchmark feeds
// it. The program under test only ever receives this text.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pdxbench {

// splitmix64: small, fast and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Exponential gap with the given rate (events per unit).
  double Exponential(double rate);

 private:
  uint64_t state_;
};

uint64_t Fnv1a64(std::string_view text, uint64_t hash = 0xcbf29ce484222325ull);

// --- Genomics (the paper's §1 scenario, a C_tract setting) ----------------

// Σst copies proteins and annotations into the university peer; Σts says
// it keeps only what the source backs. Theorem 5 applies, so `exists`
// runs the Figure 3 algorithm.
extern const char kGenomicsSetting[];

// The three source facts of protein `id`: SPProtein plus two SPAnnotation
// facts with distinct GO terms. A pure function of (seed, id).
std::string ProteinFacts(uint64_t seed, int64_t id);
// The derived target fact Protein(acc, name) that the chase adds for `id`.
std::string ProteinProbe(int64_t id);
// A backed target annotation Annotation(acc, go, curated) for `id`.
std::string BackedAnnotation(uint64_t seed, int64_t id);
// The certain-answers query over the annotations of `id`; its lower-bound
// answer holds the protein's two GO terms while the protein is present.
std::string AnnotationQuery(int64_t id);

// --- Serving scripts -------------------------------------------------------

enum class Verb { kContains, kExists, kCertain, kWrite, kRetract };
const char* VerbName(Verb verb);
bool IsRead(Verb verb);

// What a correct reply must say, from the bench's model of the tenant.
struct Expect {
  bool contains = false;  // kContains
  int answers = 0;        // kCertain: lower-bound answer count
  // kExists is always true: churn touches only proteins J does not cite.
};

// Scripts are written for this many client slots; a run with fewer
// connections serves slot s on connection s % connections, so the inputs
// do not depend on the machine.
inline constexpr int kSlots = 4;

struct ScriptedRequest {
  int slot = 0;
  double due_s = 0;   // offset from the start of the run
  Verb verb = Verb::kContains;
  std::string text;   // facts (write/retract/contains) or query (certain)
  std::string line;   // the request as a protocol line
  Expect expect;
};

struct ServeShape {
  int base_proteins = 0;
  // Mix weights in the order of Verb: contains, exists, certain, write,
  // retract.
  int mix[5] = {0, 0, 0, 0, 0};
};

struct ServeInput {
  std::string setting;
  std::string base;    // source facts of the base plus J
  std::string tenant;  // the tenant id pdxd derives from the setting
  std::vector<ScriptedRequest> requests;  // ordered by due time
  uint64_t hash = 0;  // setting, base and the first 256 request lines
};

// A seeded Poisson script at `rate` requests/s over `duration_s` seconds.
// Half of the base proteins are stable (J cites them); the other half is
// split into per-slot churn pools that only that slot writes, retracts and
// probes, so every reply has one correct value even under concurrency.
ServeInput MakeServeInput(const ServeShape& shape, uint64_t seed, double rate,
                          double duration_s, const std::string& tenant_id);

// --- Offline inputs --------------------------------------------------------

// bulk_exchange: (I, J) as text for `proteins` proteins and `backed`
// backed annotations, with the sizes Figure 3's two chases must produce.
struct BulkInput {
  std::string setting;
  std::string source;
  std::string target;
  int64_t source_facts = 0;
  int64_t expected_j_can = 0;
  int64_t expected_i_can = 0;
  uint64_t hash = 0;
};
BulkInput MakeBulkInput(uint64_t seed, int64_t proteins, int64_t backed);

// chase_egd: E(x,y) -> exists z: H(x,z) & F(y,z) with key egds on H and F
// over `nodes` nodes with `out_degree` distinct out-edges each. Every
// connected component of the out-end/in-end graph collapses to one null,
// so the resolved result holds |E| + |sources| + |sinks| facts.
struct EgdInput {
  std::string setting;
  std::string facts;
  int64_t edges = 0;
  int64_t expected_resolved = 0;
  uint64_t hash = 0;
};
EgdInput MakeEgdInput(uint64_t seed, int64_t nodes, int out_degree);

// np_search: the Section 4(a) egd-boundary setting (CLIQUE with k = 3 via
// target egds) over a 4-node path, which is bipartite and so has no
// triangle: every ExistsSolution answer is false.
struct NpInput {
  std::string setting;
  std::string facts;                // D over a1..a3 plus symmetric E
  std::vector<std::string> rounds;  // per round: one edge, both directions
  uint64_t hash = 0;
};
NpInput MakeNpInput(uint64_t seed, int rounds);

}  // namespace pdxbench

#endif  // PDXBENCH_GEN_H_

#include "logic/datalog.h"

#include <limits>
#include <utility>

#include "base/string_util.h"
#include "chase/chase.h"
#include "logic/parser.h"

namespace pdx {

std::string DatalogRule::ToString(const Schema& schema,
                                  const SymbolTable& symbols) const {
  return StrCat(AtomToString(head, schema, symbols, var_names), " :- ",
                ConjunctionToString(body, schema, symbols, var_names));
}

std::vector<bool> DatalogProgram::IntensionalRelations(
    const Schema& schema) const {
  std::vector<bool> intensional(schema.relation_count(), false);
  for (const DatalogRule& rule : rules) {
    intensional[rule.head.relation] = true;
  }
  return intensional;
}

std::vector<Tgd> DatalogProgram::AsTgds() const {
  std::vector<Tgd> tgds;
  tgds.reserve(rules.size());
  for (const DatalogRule& rule : rules) {
    tgds.push_back({rule.body, {rule.head}, rule.var_count,
                    std::vector<bool>(rule.var_count, false), rule.var_names});
  }
  return tgds;
}

std::string DatalogProgram::ToString(const Schema& schema,
                                     const SymbolTable& symbols) const {
  std::vector<std::string> lines;
  lines.reserve(rules.size());
  for (const DatalogRule& rule : rules) {
    lines.push_back(StrCat(rule.ToString(schema, symbols), "."));
  }
  return StrJoin(lines, "\n");
}

namespace {

// Rewrites "Head :- Body" statements into the tgd form "Body -> Head" so
// the dependency parser can handle both syntaxes. Works statement-wise on
// '.'-terminated clauses; ':-' inside quoted constants is not supported.
std::string NormalizeDatalogSyntax(std::string_view text) {
  std::string out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('.', start);
    std::string_view statement =
        end == std::string_view::npos
            ? text.substr(start)
            : text.substr(start, end - start);
    size_t turnstile = statement.find(":-");
    if (turnstile == std::string_view::npos) {
      out.append(statement);
    } else {
      out.append(statement.substr(turnstile + 2));
      out.append(" -> ");
      out.append(StripWhitespace(statement.substr(0, turnstile)));
    }
    if (end == std::string_view::npos) break;
    out.push_back('.');
    start = end + 1;
  }
  return out;
}

}  // namespace

StatusOr<DatalogProgram> ParseDatalogProgram(std::string_view text,
                                             const Schema& schema,
                                             SymbolTable* symbols) {
  PDX_ASSIGN_OR_RETURN(
      DependencySet deps,
      ParseDependencies(NormalizeDatalogSyntax(text), schema, symbols));
  if (!deps.egds.empty() || !deps.disjunctive_tgds.empty()) {
    return InvalidArgumentError(
        "Datalog programs contain only plain rules (no egds/disjunction)");
  }
  DatalogProgram program;
  for (Tgd& tgd : deps.tgds) {
    if (tgd.head.size() != 1) {
      return InvalidArgumentError(
          "Datalog rules have exactly one head atom");
    }
    if (!tgd.IsFull()) {
      return InvalidArgumentError(
          "Datalog rules are range-restricted (no existential variables)");
    }
    DatalogRule rule;
    rule.head = std::move(tgd.head[0]);
    rule.body = std::move(tgd.body);
    rule.var_count = tgd.var_count;
    rule.var_names = std::move(tgd.var_names);
    program.rules.push_back(std::move(rule));
  }
  return program;
}

Instance EvaluateDatalog(const DatalogProgram& program, const Instance& input,
                         DatalogStats* stats) {
  ChaseOptions options;
  options.num_threads = 1;
  // Full tgds derive only facts over the input's active domain, so the
  // chase terminates on its own; no budget may cut it short.
  options.max_steps = std::numeric_limits<int64_t>::max();
  SymbolTable no_nulls;  // full tgds mint none, but Chase wants a table
  ChaseResult result = Chase(input, program.AsTgds(), &no_nulls, options);
  PDX_CHECK(result.outcome == ChaseOutcome::kSuccess);
  if (stats != nullptr) stats->derived_facts = result.steps;
  return std::move(result.instance);
}

bool IsClosedUnder(const DatalogProgram& program, const Instance& instance) {
  DependencySet rules;
  rules.tgds = program.AsTgds();
  return SatisfiesAll(instance, rules);
}

}  // namespace pdx

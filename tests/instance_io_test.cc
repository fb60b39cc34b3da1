#include "relational/instance_io.h"

#include <cctype>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/string_util.h"
#include "gtest/gtest.h"
#include "workload/random.h"

namespace pdx {
namespace {

// The reference parser for the differential tests: the earlier
// character-at-a-time scanner, which builds a std::string per token and
// inserts fact by fact through Instance::AddFact. ParseInstance must agree
// with it on every input, error messages included.
namespace reference {

class FactScanner {
 public:
  explicit FactScanner(std::string_view text) : text_(text) {}

  void SkipSpaceAndComments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        return;
      }
    }
  }

  bool AtEnd() {
    SkipSpaceAndComments();
    return pos_ >= text_.size();
  }

  bool Consume(char c) {
    SkipSpaceAndComments();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  // An identifier, number, quoted string, or `_`-label.
  StatusOr<std::string> ReadToken() {
    SkipSpaceAndComments();
    if (pos_ >= text_.size()) {
      return InvalidArgumentError("unexpected end of instance text");
    }
    char c = text_[pos_];
    if (c == '\'' || c == '"') {
      char quote = c;
      size_t start = ++pos_;
      while (pos_ < text_.size() && text_[pos_] != quote) ++pos_;
      if (pos_ >= text_.size()) {
        return InvalidArgumentError("unterminated quoted value");
      }
      std::string token(text_.substr(start, pos_ - start));
      ++pos_;
      return token;
    }
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
      return InvalidArgumentError(
          StrCat("unexpected character '", std::string(1, c), "' at offset ",
                 pos_));
    }
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '.')) {
      // '.' inside a token only for decimal-looking constants: stop at
      // '.' unless surrounded by digits.
      if (text_[pos_] == '.') {
        bool digit_before =
            pos_ > start &&
            std::isdigit(static_cast<unsigned char>(text_[pos_ - 1]));
        bool digit_after =
            pos_ + 1 < text_.size() &&
            std::isdigit(static_cast<unsigned char>(text_[pos_ + 1]));
        if (!(digit_before && digit_after)) break;
      }
      ++pos_;
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  size_t offset() const { return pos_; }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

StatusOr<Instance> ParseInstance(std::string_view text, const Schema& schema,
                                 SymbolTable* symbols) {
  PDX_CHECK(symbols != nullptr);
  Instance instance(&schema);
  FactScanner scanner(text);
  std::unordered_map<std::string, Value> null_labels;
  while (!scanner.AtEnd()) {
    PDX_ASSIGN_OR_RETURN(std::string name, scanner.ReadToken());
    PDX_ASSIGN_OR_RETURN(RelationId relation, schema.FindRelation(name));
    if (!scanner.Consume('(')) {
      return InvalidArgumentError(
          StrCat("expected '(' after relation ", name));
    }
    Tuple tuple;
    if (!scanner.Consume(')')) {
      while (true) {
        PDX_ASSIGN_OR_RETURN(std::string token, scanner.ReadToken());
        if (!token.empty() && token[0] == '_') {
          auto [it, inserted] = null_labels.emplace(token, Value());
          if (inserted) it->second = symbols->FreshNull();
          tuple.push_back(it->second);
        } else {
          tuple.push_back(symbols->InternConstant(token));
        }
        if (scanner.Consume(')')) break;
        if (!scanner.Consume(',')) {
          return InvalidArgumentError(
              StrCat("expected ',' or ')' in fact for ", name));
        }
      }
    }
    if (static_cast<int>(tuple.size()) != schema.arity(relation)) {
      return InvalidArgumentError(
          StrCat("fact for ", name, " has ", tuple.size(),
                 " values, expected ", schema.arity(relation)));
    }
    instance.AddFact(relation, std::move(tuple));
    scanner.Consume('.');  // Trailing periods are optional separators.
  }
  return instance;
}

}  // namespace reference

class InstanceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(schema_.AddRelation("E", 2).ok());
    ASSERT_TRUE(schema_.AddRelation("U", 1).ok());
  }

  Schema schema_;
  SymbolTable symbols_;
};

TEST_F(InstanceIoTest, ParsesFactsWithPeriods) {
  auto instance = ParseInstance("E(a,b). E(b,c). U(a).", schema_, &symbols_);
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(instance->fact_count(), 3u);
  EXPECT_EQ(instance->ToString(symbols_), "E(a,b).\nE(b,c).\nU(a).");
}

TEST_F(InstanceIoTest, PeriodsAreOptional) {
  auto instance = ParseInstance("E(a,b) E(b,c)", schema_, &symbols_);
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(instance->fact_count(), 2u);
}

TEST_F(InstanceIoTest, CommentsAndWhitespace) {
  auto instance = ParseInstance(
      "# a comment\n  E(a,b).   # trailing\n\nU(c).", schema_, &symbols_);
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(instance->fact_count(), 2u);
}

TEST_F(InstanceIoTest, NullLabelsShareWithinOneParse) {
  auto instance = ParseInstance("E(a,_x). E(_x,b). E(_y,c).", schema_,
                                &symbols_);
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(instance->Nulls().size(), 2u);
}

TEST_F(InstanceIoTest, NullLabelsFreshAcrossParses) {
  auto first = ParseInstance("E(a,_x).", schema_, &symbols_);
  auto second = ParseInstance("E(b,_x).", schema_, &symbols_);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first->Nulls()[0], second->Nulls()[0]);
}

TEST_F(InstanceIoTest, QuotedAndNumericConstants) {
  auto instance = ParseInstance("E('hello world', 42).", schema_, &symbols_);
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(instance->ToString(symbols_), "E(hello world,42).");
}

TEST_F(InstanceIoTest, RejectsUnknownRelation) {
  auto instance = ParseInstance("Z(a).", schema_, &symbols_);
  EXPECT_FALSE(instance.ok());
  EXPECT_EQ(instance.status().code(), StatusCode::kNotFound);
}

TEST_F(InstanceIoTest, RejectsArityMismatch) {
  auto instance = ParseInstance("E(a).", schema_, &symbols_);
  EXPECT_FALSE(instance.ok());
  EXPECT_EQ(instance.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(InstanceIoTest, RejectsMalformedText) {
  EXPECT_FALSE(ParseInstance("E a,b).", schema_, &symbols_).ok());
  EXPECT_FALSE(ParseInstance("E(a,b", schema_, &symbols_).ok());
  EXPECT_FALSE(ParseInstance("E(a b)", schema_, &symbols_).ok());
}

TEST_F(InstanceIoTest, EmptyTextYieldsEmptyInstance) {
  auto instance = ParseInstance("  # nothing\n", schema_, &symbols_);
  ASSERT_TRUE(instance.ok());
  EXPECT_TRUE(instance->empty());
}


// --- Differential and round-trip properties -----------------------------

// The schema of the property tests: relations of arity 1 to 3 whose names
// share prefixes. (There are no nullary relations: Schema::AddRelation
// rejects arity 0, and `R()` for a positive-arity R is an arity error,
// which the mutations below produce.)
Schema PropertySchema() {
  Schema schema;
  PDX_CHECK(schema.AddRelation("E", 2).ok());
  PDX_CHECK(schema.AddRelation("U", 1).ok());
  PDX_CHECK(schema.AddRelation("Edge", 3).ok());
  return schema;
}

// Both parsers, each with a fresh SymbolTable, must return the same
// Status (code and message) and, on success, the same instance: the same
// tuples in the same per-relation order, the same rendering, the same
// nulls and the same constant ids.
void ExpectSameParse(std::string_view text, const Schema& schema) {
  SCOPED_TRACE(testing::Message() << "text: \"" << text << "\"");
  SymbolTable want_symbols;
  SymbolTable got_symbols;
  StatusOr<Instance> want =
      reference::ParseInstance(text, schema, &want_symbols);
  StatusOr<Instance> got = ParseInstance(text, schema, &got_symbols);
  ASSERT_EQ(got.status().code(), want.status().code());
  ASSERT_EQ(got.status().message(), want.status().message());
  // A rejected text leaves the same symbols behind: callers such as a
  // serving tenant parse into a long-lived table.
  ASSERT_EQ(got_symbols.null_count(), want_symbols.null_count());
  ASSERT_EQ(got_symbols.constant_count(), want_symbols.constant_count());
  for (uint32_t id = 0; id < want_symbols.constant_count(); ++id) {
    ASSERT_EQ(got_symbols.ValueToString(Value::Constant(id)),
              want_symbols.ValueToString(Value::Constant(id)));
  }
  if (!want.ok()) return;
  ASSERT_EQ(got->fact_count(), want->fact_count());
  for (RelationId r = 0; r < schema.relation_count(); ++r) {
    const TupleList g = got->tuples(r);
    const TupleList w = want->tuples(r);
    ASSERT_EQ(g.size(), w.size());
    for (size_t i = 0; i < g.size(); ++i) ASSERT_TRUE(g[i] == w[i]);
  }
  ASSERT_EQ(got->ToString(got_symbols), want->ToString(want_symbols));
  ASSERT_EQ(got->Nulls(), want->Nulls());
}

// A valid fact text over PropertySchema(): bare, numeric, quoted and
// empty constants, shared and quoted null labels, comments, irregular
// whitespace and optional periods.
std::string RandomFactText(Rng& rng) {
  static const char* const kValues[] = {
      "a",     "b1",   "x_y",  "42",   "1.5",   "3.14.15", "'a b'",
      "''",    "\"\"", "'#c'", "\"q'z\"", "'1.5'", "_x",   "_y1",
      "'_x'",  "Edge", "e9",   "0"};
  static const char* const kGaps[] = {"", " ", "  ", "\n", "\t",
                                      " # note\n", "\r\n"};
  static const char* const kNames[] = {"E", "U", "Edge", "'E'"};
  static const int kArities[] = {2, 1, 3, 2};
  auto gap = [&] { return kGaps[rng.UniformInt(7)]; };
  std::string text = gap();
  for (uint32_t facts = rng.UniformInt(6); facts > 0; --facts) {
    const uint32_t rel = rng.UniformInt(4);
    text += kNames[rel];
    text += gap();
    text += '(';
    for (int i = 0; i < kArities[rel]; ++i) {
      if (i > 0) text += ',';
      text += gap();
      text += kValues[rng.UniformInt(18)];
      text += gap();
    }
    text += ')';
    if (rng.UniformInt(3) != 0) text += '.';
    text += gap();
  }
  return text;
}

// One byte from the structure-weighted mutation alphabet: mostly the
// characters the grammar cares about, sometimes letters, whitespace or an
// arbitrary byte (NUL and bytes >= 0x80 included).
char MutationByte(Rng& rng) {
  static const char kStructure[] = "'\"#._0123456789(,)";
  const uint32_t kind = rng.UniformInt(10);
  if (kind < 7) return kStructure[rng.UniformInt(sizeof(kStructure) - 1)];
  if (kind < 8) return "aEU \n"[rng.UniformInt(5)];
  return static_cast<char>(rng.UniformInt(256));
}

TEST(InstanceIoPropertyTest, MutatedTextsParseLikeTheReference) {
  const Schema schema = PropertySchema();
  Rng rng(2024);
  int accepted = 0;
  for (int round = 0; round < 20000; ++round) {
    std::string text = RandomFactText(rng);
    for (uint32_t edits = rng.UniformInt(5); edits > 0; --edits) {
      const uint32_t kind = rng.UniformInt(3);
      const size_t pos = rng.UniformInt(static_cast<uint32_t>(text.size()) + 1);
      if (kind == 0) {
        text.insert(text.begin() + pos, MutationByte(rng));
      } else if (pos < text.size()) {
        if (kind == 1) {
          text.erase(pos, 1);
        } else {
          text[pos] = MutationByte(rng);
        }
      }
    }
    ExpectSameParse(text, schema);
    if (HasFatalFailure()) return;
    SymbolTable symbols;
    if (ParseInstance(text, schema, &symbols).ok()) ++accepted;
  }
  // Both outcomes are exercised in bulk.
  EXPECT_GT(accepted, 2000);
  EXPECT_LT(accepted, 18000);
}

TEST(InstanceIoPropertyTest, HandPickedEdgeCasesParseLikeTheReference) {
  const Schema schema = PropertySchema();
  for (const char* text :
       {"", "#", "# only a comment", "E", "E(", "E()", "U()", "E(a)",
        "E(a,b,c)", "E(a,b,_n,c,_n)", "U(a,)", "U(,a)", "U(a b)", "U('a)", "U(\"a')",
        "U(a).U(a)", "U(a)..", "U(.5)", "U(5.)", "U(1..2)", "U(1.2.3)",
        "U(a.1)", "U(1.a)", "'U'(a)", "\"U\"(a)", "''(a)", "_x(a)",
        "1.5(a)", "Edge(a,b)", "Edge(a,b,c,d)", "U(_)", "U('_')",
        "U(_x) U(_x) U('_x')", "U(#)\n)", "U(a)#\nU(b)", "U(\x80)",
        "U(a)\x01", "E(a,b)(c)",
        "E(a,b)E(b,c)", "U(a)(", "U(''#x')"}) {
    ExpectSameParse(text, schema);
  }
  // NUL bytes inside the text.
  ExpectSameParse(std::string_view("U(\0)", 4), schema);
  ExpectSameParse(std::string_view("U(a)\0", 5), schema);
}

// True if `s` lexes as exactly one bare token that is not a null label.
bool IsBareConstant(const std::string& s) {
  if (s.empty() || s[0] == '_') return false;
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (std::isalnum(c) || c == '_') continue;
    if (c == '.' && i > 0 && i + 1 < s.size() &&
        std::isdigit(static_cast<unsigned char>(s[i - 1])) &&
        std::isdigit(static_cast<unsigned char>(s[i + 1]))) {
      continue;
    }
    return false;
  }
  return true;
}

std::string RenderConstant(const std::string& s) {
  if (IsBareConstant(s)) return s;
  const char quote = s.find('\'') == std::string::npos ? '\'' : '"';
  return StrCat(quote, s, quote);
}

// Prints every relation's tuples in tuple order, relation by relation,
// one fact per line: constants bare where the lexer reads them back as
// one token and quoted otherwise; nulls as `_n<k>`, numbered by first
// occurrence, so equal instances print equally whatever their null ids.
std::string PrintFacts(const Instance& instance, const SymbolTable& symbols) {
  std::unordered_map<uint64_t, size_t> null_names;
  std::string out;
  const Schema& schema = instance.schema();
  for (RelationId r = 0; r < schema.relation_count(); ++r) {
    for (TupleView t : instance.tuples(r)) {
      out += schema.relation_name(r);
      out += '(';
      for (int i = 0; i < t.size(); ++i) {
        if (i > 0) out += ", ";
        if (t[i].is_null()) {
          auto [it, inserted] =
              null_names.try_emplace(t[i].packed(), null_names.size());
          out += StrCat("_n", it->second);
        } else {
          out += RenderConstant(symbols.ValueToString(t[i]));
        }
      }
      out += ").\n";
    }
  }
  return out;
}

TEST(InstanceIoPropertyTest, PrintParsePrintRoundTrips) {
  const Schema schema = PropertySchema();
  // Constants needing quotes (the empty spelling, inner spaces, a '.' not
  // between digits, '#', a quote) next to bare ones and decimals.
  const std::vector<std::string> constants = {
      "a", "b1", "", "a b", "1.5", "42", "x.y", "#c", "q'z", "Edge", "0.0"};
  Rng rng(99);
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    // Facts over interleaved relations from a small value pool, so
    // duplicates are common; each also repeats verbatim now and then.
    std::string text;
    for (uint32_t facts = rng.UniformInt(40); facts > 0; --facts) {
      const RelationId r =
          static_cast<RelationId>(rng.UniformInt(schema.relation_count()));
      std::string fact = schema.relation_name(r) + "(";
      for (int i = 0; i < schema.arity(r); ++i) {
        if (i > 0) fact += ",";
        if (rng.UniformInt(5) == 0) {
          fact += StrCat("_l", rng.UniformInt(3));
        } else {
          fact += RenderConstant(constants[rng.UniformInt(
              static_cast<uint32_t>(constants.size()))]);
        }
      }
      fact += ")";
      text += fact + (rng.UniformInt(2) == 0 ? ". " : "\n");
      if (rng.UniformInt(6) == 0) text += fact + " ";
    }
    SymbolTable symbols;
    StatusOr<Instance> first = ParseInstance(text, schema, &symbols);
    ASSERT_TRUE(first.ok()) << first.status().ToString() << "\n" << text;
    const std::string printed = PrintFacts(*first, symbols);
    StatusOr<Instance> second = ParseInstance(printed, schema, &symbols);
    ASSERT_TRUE(second.ok()) << second.status().ToString() << "\n"
                             << printed;
    EXPECT_EQ(PrintFacts(*second, symbols), printed);
    EXPECT_EQ(second->fact_count(), first->fact_count());
    EXPECT_EQ(second->Nulls().size(), first->Nulls().size());
  }
}

}  // namespace
}  // namespace pdx

#include "relational/instance_io.h"

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>

#include "base/string_util.h"

namespace pdx {

namespace {

// Character classes of the fact syntax, as bit flags in one 256-entry
// table. They match the C locale's isspace, isalnum and isdigit.
enum : uint8_t {
  kSpace = 1,    // ' ', \t, \n, \v, \f, \r
  kWord = 2,     // letters, digits and '_': the body of a bare token
  kDigit = 4,    // a '.' between two digits stays inside a bare token
  kQuote = 8,    // ' and ": a quoted token runs to the same quote
  kComment = 16  // '#': a comment runs to the end of its line
};

constexpr std::array<uint8_t, 256> MakeCharClasses() {
  std::array<uint8_t, 256> classes{};
  for (unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    classes[c] = kSpace;
  }
  for (int c = 'a'; c <= 'z'; ++c) classes[c] = kWord;
  for (int c = 'A'; c <= 'Z'; ++c) classes[c] = kWord;
  for (int c = '0'; c <= '9'; ++c) classes[c] = kWord | kDigit;
  classes['_'] = kWord;
  classes['\''] = kQuote;
  classes['"'] = kQuote;
  classes['#'] = kComment;
  return classes;
}

constexpr std::array<uint8_t, 256> kCharClasses = MakeCharClasses();

uint8_t ClassOf(char c) { return kCharClasses[static_cast<unsigned char>(c)]; }

// The lexer of the fact syntax. It is kept apart from the dependency
// language's parser (logic/parser.*) because instances allow a wider
// constant lexicon (numbers, quoted strings) and null labels. Tokens are
// views into the input, so lexing allocates nothing; an error is
// described only when the caller asks for it.
class FactLexer {
 public:
  explicit FactLexer(std::string_view text) : text_(text) {}

  // True once only whitespace and comments remain.
  bool AtEnd() {
    Skip();
    return pos_ >= text_.size();
  }

  // Consumes `c` if it is the next character after whitespace and
  // comments.
  bool Consume(char c) {
    Skip();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  // Reads the next token: a bare identifier, number or `_`-label (letters,
  // digits and '_', plus a '.' between two digits), or a quoted string,
  // handed out without its quotes. Returns false on a lexical error;
  // Error() then describes it.
  bool Read(std::string_view* token) {
    Skip();
    const size_t size = text_.size();
    if (pos_ >= size) {
      failure_ = Failure::kEnd;
      return false;
    }
    const char* data = text_.data();
    const char c = data[pos_];
    const uint8_t cls = ClassOf(c);
    if (cls & kQuote) {
      const size_t start = pos_ + 1;
      const void* close = std::memchr(data + start, c, size - start);
      if (close == nullptr) {
        pos_ = size;
        failure_ = Failure::kUnterminated;
        return false;
      }
      const size_t end = static_cast<const char*>(close) - data;
      *token = text_.substr(start, end - start);
      pos_ = end + 1;
      return true;
    }
    if (!(cls & kWord)) {
      failure_ = Failure::kUnexpected;
      return false;
    }
    size_t end = pos_ + 1;
    for (;;) {
      while (end < size && (ClassOf(data[end]) & kWord)) ++end;
      if (end + 1 < size && data[end] == '.' &&
          (ClassOf(data[end - 1]) & kDigit) &&
          (ClassOf(data[end + 1]) & kDigit)) {
        end += 2;
        continue;
      }
      break;
    }
    *token = text_.substr(pos_, end - pos_);
    pos_ = end;
    return true;
  }

  // The error of the last failed Read.
  Status Error() const {
    switch (failure_) {
      case Failure::kEnd:
        return InvalidArgumentError("unexpected end of instance text");
      case Failure::kUnterminated:
        return InvalidArgumentError("unterminated quoted value");
      case Failure::kUnexpected:
        break;
    }
    return InvalidArgumentError(StrCat("unexpected character '",
                                       std::string(1, text_[pos_]),
                                       "' at offset ", pos_));
  }

 private:
  enum class Failure { kEnd, kUnterminated, kUnexpected };

  void Skip() {
    const char* data = text_.data();
    const size_t size = text_.size();
    while (pos_ < size) {
      const uint8_t cls = ClassOf(data[pos_]);
      if (cls & kSpace) {
        ++pos_;
      } else if (cls & kComment) {
        const void* newline = std::memchr(data + pos_, '\n', size - pos_);
        pos_ = newline == nullptr ? size
                                  : static_cast<const char*>(newline) - data;
      } else {
        return;
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  Failure failure_ = Failure::kEnd;
};

}  // namespace

StatusOr<Instance> ParseInstance(std::string_view text, const Schema& schema,
                                 SymbolTable* symbols) {
  PDX_CHECK(symbols != nullptr);
  Instance instance(&schema);
  Instance::BulkLoader loader(&instance);
  FactLexer lexer(text);
  // Keys are views into `text`, which outlives the parse.
  std::unordered_map<std::string_view, Value> null_labels;
  while (!lexer.AtEnd()) {
    std::string_view name;
    if (!lexer.Read(&name)) return lexer.Error();
    PDX_ASSIGN_OR_RETURN(RelationId relation, schema.FindRelation(name));
    if (!lexer.Consume('(')) {
      return InvalidArgumentError(
          StrCat("expected '(' after relation ", name));
    }
    // The values go straight into the relation's arena. Those past its
    // arity are interned like the rest, so a rejected text leaves the
    // symbol table as a value-by-value parse would, and counted for the
    // error below, but not stored.
    const int arity = schema.arity(relation);
    Value* slots = loader.Append(relation);
    int count = 0;
    if (!lexer.Consume(')')) {
      while (true) {
        std::string_view token;
        if (!lexer.Read(&token)) return lexer.Error();
        Value value;
        if (!token.empty() && token[0] == '_') {
          auto [it, inserted] = null_labels.try_emplace(token);
          if (inserted) it->second = symbols->FreshNull();
          value = it->second;
        } else {
          value = symbols->InternConstant(token);
        }
        if (count < arity) slots[count] = value;
        ++count;
        if (lexer.Consume(')')) break;
        if (!lexer.Consume(',')) {
          return InvalidArgumentError(
              StrCat("expected ',' or ')' in fact for ", name));
        }
      }
    }
    if (count != arity) {
      return InvalidArgumentError(StrCat("fact for ", name, " has ", count,
                                         " values, expected ", arity));
    }
    lexer.Consume('.');  // Trailing periods are optional separators.
  }
  loader.Finish();
  return instance;
}

}  // namespace pdx

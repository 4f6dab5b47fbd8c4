#include "provenance/io.h"

#include <cctype>
#include <cstdlib>
#include <optional>
#include <vector>

#include "common/str_util.h"
#include "ir/agg_expr.h"
#include "ir/ddp_expr.h"

namespace prox {

namespace {

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Writes `domain/name`, quoting when the name contains spaces or parens.
std::string WriteAnnotation(const AnnotationRegistry& registry,
                            AnnotationId a) {
  const std::string& domain = registry.domain_name(registry.domain(a));
  const std::string& name = registry.name(a);
  bool needs_quotes = false;
  for (char c : name) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == '(' ||
        c == ')' || c == '"') {
      needs_quotes = true;
      break;
    }
  }
  std::string out = domain + "/";
  if (!needs_quotes) return out + name;
  out += '"';
  for (char c : name) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

std::string WriteMonomial(const AnnotationRegistry& registry,
                          const AnnotationId* factors, size_t len) {
  std::string out = "(mono";
  for (size_t i = 0; i < len; ++i) {
    out += " ";
    out += WriteAnnotation(registry, factors[i]);
  }
  out += ")";
  return out;
}

std::string WriteAggregate(const ir::IrAggregateExpression& expr,
                           const AnnotationRegistry& registry) {
  std::string out = "(aggregate ";
  out += AggKindToString(expr.agg());
  const size_t num_terms = expr.num_terms();
  for (size_t i = 0; i < num_terms; ++i) {
    const ir::AggTermView t = expr.term(i);
    out += "\n  (term ";
    out += WriteMonomial(registry, t.mono, t.mono_len);
    if (t.group != kNoAnnotation) {
      out += " (group " + WriteAnnotation(registry, t.group) + ")";
    }
    out += " (value " + FormatDouble(t.value.value, 6) + " " +
           FormatDouble(t.value.count, 6) + ")";
    if (t.has_guard) {
      out += " (guard " + WriteMonomial(registry, t.guard_mono, t.guard_len) +
             " " + FormatDouble(t.guard_scalar, 6) + " " +
             CompareOpToString(t.guard_op) + " " +
             FormatDouble(t.guard_threshold, 6) + ")";
    }
    out += ")";
  }
  out += ")\n";
  return out;
}

std::string WriteDdp(const ir::IrDdpExpression& expr,
                     const AnnotationRegistry& registry) {
  std::string out = "(ddp";
  for (const auto& [var, cost] : expr.costs()) {
    out += "\n  (cost " + WriteAnnotation(registry, var) + " " +
           FormatDouble(cost, 6) + ")";
  }
  const size_t num_execs = expr.num_executions();
  for (size_t e = 0; e < num_execs; ++e) {
    out += "\n  (exec";
    const size_t num_transitions = expr.num_transitions(e);
    for (size_t i = 0; i < num_transitions; ++i) {
      const ir::DdpTransitionView t = expr.transition(e, i);
      if (t.user) {
        out += " (user " + WriteAnnotation(registry, t.cost_var) + ")";
      } else {
        out += std::string(" (db ") + (t.nonzero ? "!=" : "==");
        for (size_t k = 0; k < t.db_len; ++k) {
          out += " " + WriteAnnotation(registry, t.db[k]);
        }
        out += ")";
      }
    }
    out += ")";
  }
  out += ")\n";
  return out;
}

// ---------------------------------------------------------------------------
// Parsing: tokenizer + recursive descent over s-expressions.
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind { kLParen, kRParen, kAtom, kEnd };
  Kind kind = Kind::kEnd;
  std::string text;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Result<Token> Next() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ >= text_.size()) return Token{Token::Kind::kEnd, ""};
    char c = text_[pos_];
    if (c == '(') {
      ++pos_;
      return Token{Token::Kind::kLParen, "("};
    }
    if (c == ')') {
      ++pos_;
      return Token{Token::Kind::kRParen, ")"};
    }
    std::string atom;
    if (ReadQuotedOrBare(&atom)) return Token{Token::Kind::kAtom, atom};
    return Status::InvalidArgument("unterminated quoted string");
  }

 private:
  /// Reads a bare atom, handling an embedded quoted segment after the
  /// domain separator (`movie/"Match Point"`).
  bool ReadQuotedOrBare(std::string* out) {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
          if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
          out->push_back(text_[pos_]);
          ++pos_;
        }
        if (pos_ >= text_.size()) return false;  // no closing quote
        ++pos_;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c)) || c == '(' ||
          c == ')') {
        break;
      }
      out->push_back(c);
      ++pos_;
    }
    return true;
  }

  const std::string* text_ptr() const { return &text_; }

  const std::string& text_;
  size_t pos_ = 0;

 public:
  size_t pos() const { return pos_; }
  void set_pos(size_t pos) { pos_ = pos; }
};

/// A parsed s-expression node: an atom or a list.
struct Node {
  bool is_atom = false;
  std::string atom;
  std::vector<Node> children;
};

Result<Node> ParseNode(Lexer* lexer) {
  Token token;
  PROX_ASSIGN_OR_RETURN(token, lexer->Next());
  if (token.kind == Token::Kind::kAtom) {
    Node node;
    node.is_atom = true;
    node.atom = std::move(token.text);
    return node;
  }
  if (token.kind != Token::Kind::kLParen) {
    return Status::InvalidArgument("expected '(' or atom");
  }
  Node node;
  for (;;) {
    // One-token lookahead: remember the position, peek, and rewind when
    // the next token starts a child expression.
    const size_t mark = lexer->pos();
    Token peeked;
    PROX_ASSIGN_OR_RETURN(peeked, lexer->Next());
    if (peeked.kind == Token::Kind::kRParen) return node;
    if (peeked.kind == Token::Kind::kEnd) {
      return Status::InvalidArgument("unterminated list");
    }
    lexer->set_pos(mark);
    Node child;
    PROX_ASSIGN_OR_RETURN(child, ParseNode(lexer));
    node.children.push_back(std::move(child));
  }
}

Result<AnnotationId> InternAnnotation(const std::string& atom,
                                      AnnotationRegistry* registry) {
  size_t slash = atom.find('/');
  if (slash == std::string::npos || slash == 0 ||
      slash == atom.size() - 1) {
    return Status::InvalidArgument("expected domain/name, got: " + atom);
  }
  std::string domain_name = atom.substr(0, slash);
  std::string name = atom.substr(slash + 1);
  DomainId domain = registry->AddDomain(domain_name);
  auto found = registry->Find(name);
  if (found.ok()) {
    if (registry->domain(found.value()) != domain) {
      return Status::InvalidArgument("annotation " + name +
                                     " already registered under domain " +
                                     registry->domain_name(
                                         registry->domain(found.value())));
    }
    return found.value();
  }
  return registry->Add(domain, name);
}

bool IsList(const Node& n, const std::string& head) {
  return !n.is_atom && !n.children.empty() && n.children[0].is_atom &&
         n.children[0].atom == head;
}

Result<Monomial> ParseMonomial(const Node& node,
                               AnnotationRegistry* registry) {
  if (!IsList(node, "mono")) {
    return Status::InvalidArgument("expected (mono ...)");
  }
  std::vector<AnnotationId> factors;
  for (size_t i = 1; i < node.children.size(); ++i) {
    if (!node.children[i].is_atom) {
      return Status::InvalidArgument("monomial factors must be atoms");
    }
    AnnotationId a;
    PROX_ASSIGN_OR_RETURN(a,
                          InternAnnotation(node.children[i].atom, registry));
    factors.push_back(a);
  }
  return Monomial(std::move(factors));
}

Result<double> ParseNumber(const Node& node) {
  if (!node.is_atom) return Status::InvalidArgument("expected a number");
  char* end = nullptr;
  double value = std::strtod(node.atom.c_str(), &end);
  if (end == node.atom.c_str() || *end != '\0') {
    return Status::InvalidArgument("not a number: " + node.atom);
  }
  return value;
}

Result<CompareOp> ParseCompareOp(const std::string& text) {
  if (text == ">") return CompareOp::kGt;
  if (text == ">=") return CompareOp::kGe;
  if (text == "<") return CompareOp::kLt;
  if (text == "<=") return CompareOp::kLe;
  if (text == "=" || text == "==") return CompareOp::kEq;
  if (text == "!=") return CompareOp::kNe;
  return Status::InvalidArgument("unknown comparison operator: " + text);
}

Result<AggKind> ParseAggKind(const std::string& text) {
  if (text == "MAX") return AggKind::kMax;
  if (text == "MIN") return AggKind::kMin;
  if (text == "SUM") return AggKind::kSum;
  if (text == "COUNT") return AggKind::kCount;
  if (text == "AVG") return AggKind::kAvg;
  return Status::InvalidArgument("unknown aggregation: " + text);
}

Result<std::unique_ptr<ProvenanceExpression>> ParseAggregate(
    const Node& root, AnnotationRegistry* registry) {
  if (root.children.size() < 2 || !root.children[1].is_atom) {
    return Status::InvalidArgument("(aggregate <AGG> ...) expected");
  }
  AggKind agg;
  PROX_ASSIGN_OR_RETURN(agg, ParseAggKind(root.children[1].atom));
  auto expr = std::make_unique<ir::IrAggregateExpression>(
      agg, std::make_shared<ir::TermPool>());
  for (size_t i = 2; i < root.children.size(); ++i) {
    const Node& term_node = root.children[i];
    if (!IsList(term_node, "term")) {
      return Status::InvalidArgument("expected (term ...)");
    }
    Monomial mono;
    std::optional<Guard> guard;
    AnnotationId group = kNoAnnotation;
    AggValue value;
    bool have_mono = false, have_value = false;
    for (size_t j = 1; j < term_node.children.size(); ++j) {
      const Node& part = term_node.children[j];
      if (IsList(part, "mono")) {
        PROX_ASSIGN_OR_RETURN(mono, ParseMonomial(part, registry));
        have_mono = true;
      } else if (IsList(part, "group")) {
        if (part.children.size() != 2 || !part.children[1].is_atom) {
          return Status::InvalidArgument("(group domain/name) expected");
        }
        PROX_ASSIGN_OR_RETURN(
            group, InternAnnotation(part.children[1].atom, registry));
      } else if (IsList(part, "value")) {
        if (part.children.size() != 3) {
          return Status::InvalidArgument("(value v count) expected");
        }
        PROX_ASSIGN_OR_RETURN(value.value, ParseNumber(part.children[1]));
        PROX_ASSIGN_OR_RETURN(value.count, ParseNumber(part.children[2]));
        have_value = true;
      } else if (IsList(part, "guard")) {
        if (part.children.size() != 5 || !part.children[3].is_atom) {
          return Status::InvalidArgument(
              "(guard (mono ...) scalar op threshold) expected");
        }
        Monomial body;
        PROX_ASSIGN_OR_RETURN(body,
                              ParseMonomial(part.children[1], registry));
        double scalar, threshold;
        PROX_ASSIGN_OR_RETURN(scalar, ParseNumber(part.children[2]));
        CompareOp op;
        PROX_ASSIGN_OR_RETURN(op, ParseCompareOp(part.children[3].atom));
        PROX_ASSIGN_OR_RETURN(threshold, ParseNumber(part.children[4]));
        guard = Guard(std::move(body), scalar, op, threshold);
      } else {
        return Status::InvalidArgument("unknown term part");
      }
    }
    if (!have_mono || !have_value) {
      return Status::InvalidArgument("term requires (mono ...) and (value)");
    }
    expr->AddTerm(mono, group, value, guard);
  }
  expr->Canonicalize();
  return std::unique_ptr<ProvenanceExpression>(std::move(expr));
}

Result<std::unique_ptr<ProvenanceExpression>> ParseDdp(
    const Node& root, AnnotationRegistry* registry) {
  auto expr =
      std::make_unique<ir::IrDdpExpression>(std::make_shared<ir::TermPool>());
  for (size_t i = 1; i < root.children.size(); ++i) {
    const Node& part = root.children[i];
    if (IsList(part, "cost")) {
      if (part.children.size() != 3 || !part.children[1].is_atom) {
        return Status::InvalidArgument("(cost domain/name value) expected");
      }
      AnnotationId var;
      PROX_ASSIGN_OR_RETURN(var,
                            InternAnnotation(part.children[1].atom, registry));
      double cost;
      PROX_ASSIGN_OR_RETURN(cost, ParseNumber(part.children[2]));
      expr->SetCost(var, cost);
    } else if (IsList(part, "exec")) {
      expr->BeginExecution();
      for (size_t j = 1; j < part.children.size(); ++j) {
        const Node& t = part.children[j];
        if (IsList(t, "user")) {
          if (t.children.size() != 2 || !t.children[1].is_atom) {
            return Status::InvalidArgument("(user domain/name) expected");
          }
          AnnotationId var;
          PROX_ASSIGN_OR_RETURN(
              var, InternAnnotation(t.children[1].atom, registry));
          expr->AddUserTransition(var);
        } else if (IsList(t, "db")) {
          if (t.children.size() < 3 || !t.children[1].is_atom) {
            return Status::InvalidArgument("(db !=|== vars...) expected");
          }
          bool nonzero;
          if (t.children[1].atom == "!=") {
            nonzero = true;
          } else if (t.children[1].atom == "==") {
            nonzero = false;
          } else {
            return Status::InvalidArgument("db guard must be != or ==");
          }
          std::vector<AnnotationId> factors;
          for (size_t k = 2; k < t.children.size(); ++k) {
            if (!t.children[k].is_atom) {
              return Status::InvalidArgument("db factors must be atoms");
            }
            AnnotationId a;
            PROX_ASSIGN_OR_RETURN(
                a, InternAnnotation(t.children[k].atom, registry));
            factors.push_back(a);
          }
          expr->AddDbTransition(Monomial(std::move(factors)), nonzero);
        } else {
          return Status::InvalidArgument("unknown transition kind");
        }
      }
    } else {
      return Status::InvalidArgument("unknown ddp part");
    }
  }
  expr->Canonicalize();
  return std::unique_ptr<ProvenanceExpression>(std::move(expr));
}

}  // namespace

std::string SerializeExpression(const ProvenanceExpression& expr,
                                const AnnotationRegistry& registry) {
  if (const ir::IrAggregateExpression* agg = expr.AsAggregate()) {
    return WriteAggregate(*agg, registry);
  }
  if (const ir::IrDdpExpression* ddp = expr.AsDdp()) {
    return WriteDdp(*ddp, registry);
  }
  return "(unknown)\n";
}

Result<std::unique_ptr<ProvenanceExpression>> ParseExpression(
    const std::string& text, AnnotationRegistry* registry) {
  Lexer lexer(text);
  Node root;
  PROX_ASSIGN_OR_RETURN(root, ParseNode(&lexer));
  if (IsList(root, "aggregate")) return ParseAggregate(root, registry);
  if (IsList(root, "ddp")) return ParseDdp(root, registry);
  return Status::InvalidArgument(
      "expected an (aggregate ...) or (ddp ...) expression");
}

}  // namespace prox

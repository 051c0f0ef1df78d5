// Expression AST for the symbolic modeling layer (a PRISM-language subset).
//
// Expressions appear as command guards, transition rates, update right-hand
// sides, label definitions and reward items. They are immutable shared DAGs;
// building them via the overloaded operators reads close to PRISM source:
//
//   Expr x = Expr::ident("x");
//   Expr guard = (x > 0) && Expr::ident("bus_up");
//
// Identifiers are name-only until resolve() binds them against a symbol scope
// (constants fold to literals, formulas substitute their bodies, variables
// become index references). Only resolved expressions can be evaluated
// against a state.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace autosec::symbolic {

/// Dynamically typed value: bool, int or double. Ints promote to double in
/// mixed arithmetic; bools never convert implicitly.
class Value {
 public:
  enum class Type { kBool, kInt, kDouble };

  Value() : type_(Type::kInt), int_(0) {}
  static Value of(bool b);
  static Value of(int64_t i);
  static Value of(double d);

  Type type() const { return type_; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_numeric() const { return type_ != Type::kBool; }
  bool is_int() const { return type_ == Type::kInt; }

  bool as_bool() const;      ///< throws EvalError unless bool
  int64_t as_int() const;    ///< throws EvalError unless int
  double as_number() const;  ///< int or double; throws EvalError for bool

  std::string to_string() const;
  bool equals(const Value& other) const;

 private:
  Type type_;
  union {
    bool bool_;
    int64_t int_;
    double double_;
  };
};

/// Error raised during expression evaluation or resolution.
class EvalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class UnaryOp { kNot, kMinus };

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv,
  kAnd, kOr, kImplies, kIff,
  kEq, kNe, kLt, kLe, kGt, kGe,
};

enum class CallOp { kMin, kMax, kFloor, kCeil, kPow, kMod, kLog };

/// Scope used by Expr::resolve(). All maps are borrowed; formulas must
/// already be resolved.
struct SymbolScope {
  const std::vector<std::pair<std::string, Value>>* constants = nullptr;
  const std::vector<std::pair<std::string, class Expr>>* formulas = nullptr;
  /// Variable name -> state-vector index.
  const std::vector<std::string>* variables = nullptr;
};

class Expr {
 public:
  Expr() = default;  ///< empty; is_valid() == false

  static Expr literal(bool value);
  static Expr literal(int64_t value);
  static Expr literal(int value) { return literal(static_cast<int64_t>(value)); }
  static Expr literal(double value);
  static Expr truth() { return literal(true); }

  /// Unresolved name (variable, constant or formula).
  static Expr ident(std::string name);
  /// Resolved variable reference (index into the state vector).
  static Expr var_ref(uint32_t index, std::string name);

  static Expr unary(UnaryOp op, Expr operand);
  static Expr binary(BinaryOp op, Expr lhs, Expr rhs);
  static Expr call(CallOp op, std::vector<Expr> args);
  static Expr ite(Expr condition, Expr then_value, Expr else_value);

  bool is_valid() const { return node_ != nullptr; }

  /// True when the node is a literal; `out` receives the value.
  bool as_literal(Value& out) const;

  /// Structural identity: the same node kinds, operators, names, variable
  /// indices and literals (same type, same bits) all the way down.
  bool same_as(const Expr& other) const;

  /// Bind identifiers against `scope`; folds constant subtrees. Throws
  /// EvalError on unknown identifiers.
  Expr resolve(const SymbolScope& scope) const;

  /// Evaluate against a state vector. Only valid on resolved expressions
  /// (no bare identifiers); throws EvalError otherwise.
  Value evaluate(std::span<const int32_t> state) const;

  /// Convenience for guards/labels: evaluate and require a bool.
  bool evaluate_bool(std::span<const int32_t> state) const;
  /// Convenience for rates/rewards: evaluate and require a number.
  double evaluate_number(std::span<const int32_t> state) const;

  /// Collect the state-variable indices this expression reads.
  void collect_variables(std::vector<uint32_t>& out) const;

  /// Structural simplification (no symbol resolution): boolean identities
  /// (true & x -> x, false | x -> x, !!x -> x, ...), arithmetic identities
  /// (x+0, x*1, x*0), and literal conditionals. Used by the writers to keep
  /// generated PRISM output readable; semantics are preserved exactly.
  Expr simplified() const;

  /// PRISM-syntax rendering (used by the model writer and error messages).
  std::string to_string() const;

  // Operator sugar (all build unresolved trees; resolution happens later).
  friend Expr operator+(Expr a, Expr b) { return binary(BinaryOp::kAdd, std::move(a), std::move(b)); }
  friend Expr operator-(Expr a, Expr b) { return binary(BinaryOp::kSub, std::move(a), std::move(b)); }
  friend Expr operator*(Expr a, Expr b) { return binary(BinaryOp::kMul, std::move(a), std::move(b)); }
  friend Expr operator/(Expr a, Expr b) { return binary(BinaryOp::kDiv, std::move(a), std::move(b)); }
  friend Expr operator&&(Expr a, Expr b) { return binary(BinaryOp::kAnd, std::move(a), std::move(b)); }
  friend Expr operator||(Expr a, Expr b) { return binary(BinaryOp::kOr, std::move(a), std::move(b)); }
  friend Expr operator==(Expr a, Expr b) { return binary(BinaryOp::kEq, std::move(a), std::move(b)); }
  friend Expr operator!=(Expr a, Expr b) { return binary(BinaryOp::kNe, std::move(a), std::move(b)); }
  friend Expr operator<(Expr a, Expr b) { return binary(BinaryOp::kLt, std::move(a), std::move(b)); }
  friend Expr operator<=(Expr a, Expr b) { return binary(BinaryOp::kLe, std::move(a), std::move(b)); }
  friend Expr operator>(Expr a, Expr b) { return binary(BinaryOp::kGt, std::move(a), std::move(b)); }
  friend Expr operator>=(Expr a, Expr b) { return binary(BinaryOp::kGe, std::move(a), std::move(b)); }
  Expr operator!() const { return unary(UnaryOp::kNot, *this); }
  Expr operator-() const { return unary(UnaryOp::kMinus, *this); }

  struct Node;  // public for the writer's structural inspection

  const Node* node() const { return node_.get(); }

 private:
  explicit Expr(std::shared_ptr<const Node> node) : node_(std::move(node)) {}
  std::shared_ptr<const Node> node_;
};

/// Disjunction of a list (empty list -> false). Mirrors the paper's ⋁ over
/// interface/ECU sets in Eqs. (3)-(5).
Expr any_of(const std::vector<Expr>& terms);
/// Conjunction of a list (empty list -> true).
Expr all_of(const std::vector<Expr>& terms);

struct Expr::Node {
  enum class Kind { kLiteral, kIdent, kVarRef, kUnary, kBinary, kCall, kIte };
  Kind kind;
  // kLiteral
  Value value;
  // kIdent / kVarRef
  std::string name;
  uint32_t var_index = 0;
  // kUnary / kBinary / kCall / kIte
  UnaryOp unary_op = UnaryOp::kNot;
  BinaryOp binary_op = BinaryOp::kAdd;
  CallOp call_op = CallOp::kMin;
  std::vector<Expr> children;
};

}  // namespace autosec::symbolic

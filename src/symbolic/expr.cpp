#include "symbolic/expr.hpp"

#include <bit>
#include <cmath>
#include <sstream>

namespace autosec::symbolic {

// ---------------------------------------------------------------------------
// Value

Value Value::of(bool b) {
  Value v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

Value Value::of(int64_t i) {
  Value v;
  v.type_ = Type::kInt;
  v.int_ = i;
  return v;
}

Value Value::of(double d) {
  Value v;
  v.type_ = Type::kDouble;
  v.double_ = d;
  return v;
}

bool Value::as_bool() const {
  if (type_ != Type::kBool) throw EvalError("expected a boolean, got " + to_string());
  return bool_;
}

int64_t Value::as_int() const {
  if (type_ != Type::kInt) throw EvalError("expected an integer, got " + to_string());
  return int_;
}

double Value::as_number() const {
  switch (type_) {
    case Type::kInt: return static_cast<double>(int_);
    case Type::kDouble: return double_;
    case Type::kBool: throw EvalError("expected a number, got " + to_string());
  }
  throw EvalError("corrupt value");
}

std::string Value::to_string() const {
  switch (type_) {
    case Type::kBool: return bool_ ? "true" : "false";
    case Type::kInt: return std::to_string(int_);
    case Type::kDouble: {
      std::ostringstream os;
      os.precision(17);
      os << double_;
      return os.str();
    }
  }
  return "?";
}

bool Value::equals(const Value& other) const {
  if (is_bool() != other.is_bool()) return false;
  if (is_bool()) return bool_ == other.as_bool();
  return as_number() == other.as_number();
}

// ---------------------------------------------------------------------------
// Expr construction

Expr Expr::literal(bool value) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kLiteral;
  node->value = Value::of(value);
  return Expr(std::move(node));
}

Expr Expr::literal(int64_t value) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kLiteral;
  node->value = Value::of(value);
  return Expr(std::move(node));
}

Expr Expr::literal(double value) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kLiteral;
  node->value = Value::of(value);
  return Expr(std::move(node));
}

Expr Expr::ident(std::string name) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kIdent;
  node->name = std::move(name);
  return Expr(std::move(node));
}

Expr Expr::var_ref(uint32_t index, std::string name) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kVarRef;
  node->var_index = index;
  node->name = std::move(name);
  return Expr(std::move(node));
}

Expr Expr::unary(UnaryOp op, Expr operand) {
  if (!operand.is_valid()) throw EvalError("unary: invalid operand");
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kUnary;
  node->unary_op = op;
  node->children = {std::move(operand)};
  return Expr(std::move(node));
}

Expr Expr::binary(BinaryOp op, Expr lhs, Expr rhs) {
  if (!lhs.is_valid() || !rhs.is_valid()) throw EvalError("binary: invalid operand");
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kBinary;
  node->binary_op = op;
  node->children = {std::move(lhs), std::move(rhs)};
  return Expr(std::move(node));
}

Expr Expr::call(CallOp op, std::vector<Expr> args) {
  const size_t arity = (op == CallOp::kFloor || op == CallOp::kCeil || op == CallOp::kLog) ? 1 : 2;
  if (op == CallOp::kLog && args.size() == 2) {
    // PRISM's log(x, base); we also allow natural log with one argument.
  } else if (args.size() != arity) {
    throw EvalError("call: wrong number of arguments");
  }
  for (const Expr& a : args) {
    if (!a.is_valid()) throw EvalError("call: invalid argument");
  }
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kCall;
  node->call_op = op;
  node->children = std::move(args);
  return Expr(std::move(node));
}

Expr Expr::ite(Expr condition, Expr then_value, Expr else_value) {
  if (!condition.is_valid() || !then_value.is_valid() || !else_value.is_valid()) {
    throw EvalError("ite: invalid operand");
  }
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kIte;
  node->children = {std::move(condition), std::move(then_value), std::move(else_value)};
  return Expr(std::move(node));
}

bool Expr::as_literal(Value& out) const {
  if (!node_ || node_->kind != Node::Kind::kLiteral) return false;
  out = node_->value;
  return true;
}

bool Expr::same_as(const Expr& other) const {
  if (node_ == other.node_) return true;
  if (!node_ || !other.node_) return false;
  const Node& a = *node_;
  const Node& b = *other.node_;
  if (a.kind != b.kind || a.children.size() != b.children.size()) return false;
  switch (a.kind) {
    case Node::Kind::kLiteral:
      if (a.value.type() != b.value.type()) return false;
      switch (a.value.type()) {
        case Value::Type::kBool: return a.value.as_bool() == b.value.as_bool();
        case Value::Type::kInt: return a.value.as_int() == b.value.as_int();
        case Value::Type::kDouble:
          return std::bit_cast<uint64_t>(a.value.as_number()) ==
                 std::bit_cast<uint64_t>(b.value.as_number());
      }
      return false;
    case Node::Kind::kIdent: return a.name == b.name;
    case Node::Kind::kVarRef: return a.var_index == b.var_index;
    case Node::Kind::kUnary:
      if (a.unary_op != b.unary_op) return false;
      break;
    case Node::Kind::kBinary:
      if (a.binary_op != b.binary_op) return false;
      break;
    case Node::Kind::kCall:
      if (a.call_op != b.call_op) return false;
      break;
    case Node::Kind::kIte: break;
  }
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!a.children[i].same_as(b.children[i])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Evaluation

namespace {

Value eval_unary(UnaryOp op, const Value& v) {
  switch (op) {
    case UnaryOp::kNot:
      return Value::of(!v.as_bool());
    case UnaryOp::kMinus:
      if (v.is_int()) return Value::of(-v.as_int());
      return Value::of(-v.as_number());
  }
  throw EvalError("corrupt unary op");
}

Value eval_binary(BinaryOp op, const Value& a, const Value& b) {
  auto arith = [&](auto fn) -> Value {
    if (a.is_int() && b.is_int()) return Value::of(static_cast<int64_t>(fn(a.as_int(), b.as_int())));
    return Value::of(static_cast<double>(fn(a.as_number(), b.as_number())));
  };
  switch (op) {
    case BinaryOp::kAdd: return arith([](auto x, auto y) { return x + y; });
    case BinaryOp::kSub: return arith([](auto x, auto y) { return x - y; });
    case BinaryOp::kMul: return arith([](auto x, auto y) { return x * y; });
    case BinaryOp::kDiv: {
      // PRISM division is real-valued even on integers.
      const double denom = b.as_number();
      if (denom == 0.0) throw EvalError("division by zero");
      return Value::of(a.as_number() / denom);
    }
    case BinaryOp::kAnd: return Value::of(a.as_bool() && b.as_bool());
    case BinaryOp::kOr: return Value::of(a.as_bool() || b.as_bool());
    case BinaryOp::kImplies: return Value::of(!a.as_bool() || b.as_bool());
    case BinaryOp::kIff: return Value::of(a.as_bool() == b.as_bool());
    case BinaryOp::kEq: return Value::of(a.equals(b));
    case BinaryOp::kNe: return Value::of(!a.equals(b));
    case BinaryOp::kLt: return Value::of(a.as_number() < b.as_number());
    case BinaryOp::kLe: return Value::of(a.as_number() <= b.as_number());
    case BinaryOp::kGt: return Value::of(a.as_number() > b.as_number());
    case BinaryOp::kGe: return Value::of(a.as_number() >= b.as_number());
  }
  throw EvalError("corrupt binary op");
}

Value eval_call(CallOp op, const std::vector<Value>& args) {
  switch (op) {
    case CallOp::kMin:
      if (args[0].is_int() && args[1].is_int()) {
        return Value::of(std::min(args[0].as_int(), args[1].as_int()));
      }
      return Value::of(std::min(args[0].as_number(), args[1].as_number()));
    case CallOp::kMax:
      if (args[0].is_int() && args[1].is_int()) {
        return Value::of(std::max(args[0].as_int(), args[1].as_int()));
      }
      return Value::of(std::max(args[0].as_number(), args[1].as_number()));
    case CallOp::kFloor:
      return Value::of(static_cast<int64_t>(std::floor(args[0].as_number())));
    case CallOp::kCeil:
      return Value::of(static_cast<int64_t>(std::ceil(args[0].as_number())));
    case CallOp::kPow:
      return Value::of(std::pow(args[0].as_number(), args[1].as_number()));
    case CallOp::kMod: {
      const int64_t divisor = args[1].as_int();
      if (divisor == 0) throw EvalError("mod by zero");
      return Value::of(args[0].as_int() % divisor);
    }
    case CallOp::kLog: {
      const double x = args[0].as_number();
      if (args.size() == 2) return Value::of(std::log(x) / std::log(args[1].as_number()));
      return Value::of(std::log(x));
    }
  }
  throw EvalError("corrupt call op");
}

}  // namespace

Value Expr::evaluate(std::span<const int32_t> state) const {
  if (!node_) throw EvalError("evaluate: empty expression");
  const Node& n = *node_;
  switch (n.kind) {
    case Node::Kind::kLiteral:
      return n.value;
    case Node::Kind::kIdent:
      throw EvalError("evaluate: unresolved identifier '" + n.name + "'");
    case Node::Kind::kVarRef:
      if (n.var_index >= state.size()) throw EvalError("evaluate: variable index out of range");
      return Value::of(static_cast<int64_t>(state[n.var_index]));
    case Node::Kind::kUnary:
      return eval_unary(n.unary_op, n.children[0].evaluate(state));
    case Node::Kind::kBinary: {
      // Short-circuit the boolean connectives: guards like
      // (x>0) & (y/x > 1) must not evaluate the second operand spuriously.
      if (n.binary_op == BinaryOp::kAnd) {
        if (!n.children[0].evaluate(state).as_bool()) return Value::of(false);
        return Value::of(n.children[1].evaluate(state).as_bool());
      }
      if (n.binary_op == BinaryOp::kOr) {
        if (n.children[0].evaluate(state).as_bool()) return Value::of(true);
        return Value::of(n.children[1].evaluate(state).as_bool());
      }
      // The right operand first: C++ leaves the order of two call arguments
      // unspecified, and this is the order GCC builds have always used. Fixed
      // here, every build and the compiled program (symbolic/program.hpp)
      // raise the same error when both operands would.
      const Value rhs = n.children[1].evaluate(state);
      const Value lhs = n.children[0].evaluate(state);
      return eval_binary(n.binary_op, lhs, rhs);
    }
    case Node::Kind::kCall: {
      std::vector<Value> args;
      args.reserve(n.children.size());
      for (const Expr& c : n.children) args.push_back(c.evaluate(state));
      return eval_call(n.call_op, args);
    }
    case Node::Kind::kIte:
      return n.children[0].evaluate(state).as_bool() ? n.children[1].evaluate(state)
                                                     : n.children[2].evaluate(state);
  }
  throw EvalError("corrupt expression node");
}

bool Expr::evaluate_bool(std::span<const int32_t> state) const {
  return evaluate(state).as_bool();
}

double Expr::evaluate_number(std::span<const int32_t> state) const {
  return evaluate(state).as_number();
}

// ---------------------------------------------------------------------------
// Resolution

Expr Expr::resolve(const SymbolScope& scope) const {
  if (!node_) throw EvalError("resolve: empty expression");
  const Node& n = *node_;
  switch (n.kind) {
    case Node::Kind::kLiteral:
    case Node::Kind::kVarRef:
      return *this;
    case Node::Kind::kIdent: {
      if (scope.variables) {
        for (uint32_t i = 0; i < scope.variables->size(); ++i) {
          if ((*scope.variables)[i] == n.name) return var_ref(i, n.name);
        }
      }
      if (scope.constants) {
        for (const auto& [name, value] : *scope.constants) {
          if (name == n.name) {
            auto node = std::make_shared<Node>();
            node->kind = Node::Kind::kLiteral;
            node->value = value;
            return Expr(std::move(node));
          }
        }
      }
      if (scope.formulas) {
        for (const auto& [name, body] : *scope.formulas) {
          if (name == n.name) return body;  // formulas are pre-resolved
        }
      }
      throw EvalError("resolve: unknown identifier '" + n.name + "'");
    }
    default: {
      auto node = std::make_shared<Node>(n);
      bool all_literal = true;
      for (Expr& child : node->children) {
        child = child.resolve(scope);
        Value ignored;
        all_literal = all_literal && child.as_literal(ignored);
      }
      Expr resolved{std::shared_ptr<const Node>(std::move(node))};
      if (all_literal) {
        // Constant folding; keeps generated models compact.
        const Value folded = resolved.evaluate({});
        auto lit = std::make_shared<Node>();
        lit->kind = Node::Kind::kLiteral;
        lit->value = folded;
        return Expr(std::move(lit));
      }
      return resolved;
    }
  }
}

namespace {

bool is_literal_bool(const Expr& e, bool value) {
  Value v;
  return e.as_literal(v) && v.is_bool() && v.as_bool() == value;
}

bool is_literal_number(const Expr& e, double value) {
  Value v;
  return e.as_literal(v) && v.is_numeric() && v.as_number() == value;
}

}  // namespace

Expr Expr::simplified() const {
  if (!node_) return *this;
  const Node& n = *node_;
  switch (n.kind) {
    case Node::Kind::kLiteral:
    case Node::Kind::kIdent:
    case Node::Kind::kVarRef:
      return *this;
    case Node::Kind::kUnary: {
      const Expr child = n.children[0].simplified();
      if (n.unary_op == UnaryOp::kNot) {
        if (is_literal_bool(child, true)) return literal(false);
        if (is_literal_bool(child, false)) return literal(true);
        // !!x -> x
        if (child.node() && child.node()->kind == Node::Kind::kUnary &&
            child.node()->unary_op == UnaryOp::kNot) {
          return child.node()->children[0];
        }
      }
      return unary(n.unary_op, child);
    }
    case Node::Kind::kBinary: {
      const Expr lhs = n.children[0].simplified();
      const Expr rhs = n.children[1].simplified();
      switch (n.binary_op) {
        case BinaryOp::kAnd:
          if (is_literal_bool(lhs, true)) return rhs;
          if (is_literal_bool(rhs, true)) return lhs;
          if (is_literal_bool(lhs, false) || is_literal_bool(rhs, false)) {
            return literal(false);
          }
          break;
        case BinaryOp::kOr:
          if (is_literal_bool(lhs, false)) return rhs;
          if (is_literal_bool(rhs, false)) return lhs;
          if (is_literal_bool(lhs, true) || is_literal_bool(rhs, true)) {
            return literal(true);
          }
          break;
        case BinaryOp::kAdd:
          if (is_literal_number(lhs, 0.0)) return rhs;
          if (is_literal_number(rhs, 0.0)) return lhs;
          break;
        case BinaryOp::kSub:
          if (is_literal_number(rhs, 0.0)) return lhs;
          break;
        case BinaryOp::kMul:
          if (is_literal_number(lhs, 1.0)) return rhs;
          if (is_literal_number(rhs, 1.0)) return lhs;
          // x*0 -> 0 preserves the type only approximately (int vs double);
          // keep the integer literal, which PRISM promotes the same way.
          if (is_literal_number(lhs, 0.0) || is_literal_number(rhs, 0.0)) {
            return literal(static_cast<int64_t>(0));
          }
          break;
        case BinaryOp::kImplies:
          if (is_literal_bool(lhs, true)) return rhs;
          if (is_literal_bool(lhs, false)) return literal(true);
          if (is_literal_bool(rhs, true)) return literal(true);
          break;
        default:
          break;
      }
      // Fold fully literal comparisons/arithmetic.
      Value lv, rv;
      if (lhs.as_literal(lv) && rhs.as_literal(rv)) {
        try {
          const Value folded = binary(n.binary_op, lhs, rhs).evaluate({});
          auto literal_node = std::make_shared<Node>();
          literal_node->kind = Node::Kind::kLiteral;
          literal_node->value = folded;
          return Expr(std::shared_ptr<const Node>(std::move(literal_node)));
        } catch (const EvalError&) {
          // e.g. division by zero: leave unfolded, evaluation will report it.
        }
      }
      return binary(n.binary_op, lhs, rhs);
    }
    case Node::Kind::kCall: {
      std::vector<Expr> children;
      children.reserve(n.children.size());
      for (const Expr& child : n.children) children.push_back(child.simplified());
      return call(n.call_op, std::move(children));
    }
    case Node::Kind::kIte: {
      const Expr condition = n.children[0].simplified();
      if (is_literal_bool(condition, true)) return n.children[1].simplified();
      if (is_literal_bool(condition, false)) return n.children[2].simplified();
      return ite(condition, n.children[1].simplified(), n.children[2].simplified());
    }
  }
  return *this;
}

void Expr::collect_variables(std::vector<uint32_t>& out) const {
  if (!node_) return;
  if (node_->kind == Node::Kind::kVarRef) {
    out.push_back(node_->var_index);
    return;
  }
  for (const Expr& child : node_->children) child.collect_variables(out);
}

// ---------------------------------------------------------------------------
// Printing

namespace {

const char* binary_op_text(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kAnd: return "&";
    case BinaryOp::kOr: return "|";
    case BinaryOp::kImplies: return "=>";
    case BinaryOp::kIff: return "<=>";
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
  }
  return "?";
}

const char* call_op_text(CallOp op) {
  switch (op) {
    case CallOp::kMin: return "min";
    case CallOp::kMax: return "max";
    case CallOp::kFloor: return "floor";
    case CallOp::kCeil: return "ceil";
    case CallOp::kPow: return "pow";
    case CallOp::kMod: return "mod";
    case CallOp::kLog: return "log";
  }
  return "?";
}

}  // namespace

std::string Expr::to_string() const {
  if (!node_) return "<empty>";
  const Node& n = *node_;
  switch (n.kind) {
    case Node::Kind::kLiteral:
      return n.value.to_string();
    case Node::Kind::kIdent:
    case Node::Kind::kVarRef:
      return n.name;
    case Node::Kind::kUnary:
      return (n.unary_op == UnaryOp::kNot ? "!" : "-") +
             ("(" + n.children[0].to_string() + ")");
    case Node::Kind::kBinary:
      return "(" + n.children[0].to_string() + " " + binary_op_text(n.binary_op) +
             " " + n.children[1].to_string() + ")";
    case Node::Kind::kCall: {
      std::string out = call_op_text(n.call_op);
      out += "(";
      for (size_t i = 0; i < n.children.size(); ++i) {
        if (i > 0) out += ", ";
        out += n.children[i].to_string();
      }
      out += ")";
      return out;
    }
    case Node::Kind::kIte:
      return "(" + n.children[0].to_string() + " ? " + n.children[1].to_string() +
             " : " + n.children[2].to_string() + ")";
  }
  return "<corrupt>";
}

Expr any_of(const std::vector<Expr>& terms) {
  if (terms.empty()) return Expr::literal(false);
  Expr acc = terms.front();
  for (size_t i = 1; i < terms.size(); ++i) acc = acc || terms[i];
  return acc;
}

Expr all_of(const std::vector<Expr>& terms) {
  if (terms.empty()) return Expr::literal(true);
  Expr acc = terms.front();
  for (size_t i = 1; i < terms.size(); ++i) acc = acc && terms[i];
  return acc;
}

}  // namespace autosec::symbolic

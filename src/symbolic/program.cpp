#include "symbolic/program.hpp"

#include <bit>
#include <cmath>
#include <unordered_map>

namespace autosec::symbolic {

enum class Program::Op : uint8_t {
  kEnd,          // end of a root
  kCall,         // run shared node a's subroutine at b unless done this state
  kReturn,       // shared node a is done; back to the caller
  kJump,         // to a
  kJumpIfFalse,  // to b when bool register a is false
  kAndJump,      // when a is false: dst = false, jump to b
  kOrJump,       // when a is true: dst = true, jump to b
  kMove,
  kLoad,         // dst = variable with field a
  kAddVar,       // dst = variable with field a + int register b
  kSubVar,       // dst = variable with field a - int register b
  kIntToDouble,
  kNot, kEqB, kNeB, kImplies, kIff,
  kNegI, kAddI, kSubI, kMulI, kMinI, kMaxI, kModI,
  kNegD, kAddD, kSubD, kMulD, kDivD, kMinD, kMaxD, kPowD, kLogD, kLogBaseD,
  kFloorD, kCeilD,  // double operand, int result
  // Comparisons of ints, of doubles, and of the variable with field a against
  // the double register b. All compare as doubles, as Value::as_number does.
  kEqI, kNeI, kLtI, kLeI, kGtI, kGeI,
  kEqD, kNeD, kLtD, kLeD, kGtD, kGeD,
  kEqVar, kNeVar, kLtVar, kLeVar, kGtVar, kGeVar,
};

namespace {

using Kind = Expr::Node::Kind;

int64_t load(const uint64_t* words, uint32_t word, uint32_t shift, uint64_t mask,
             int32_t low, bool wide) {
  uint64_t offset = words[word] >> shift;
  if (wide) offset |= words[word + 1] << (64 - shift);
  offset &= mask;
  return static_cast<int32_t>(static_cast<uint32_t>(offset) + static_cast<uint32_t>(low));
}

bool is_comparison(BinaryOp op) {
  return op == BinaryOp::kEq || op == BinaryOp::kNe || op == BinaryOp::kLt ||
         op == BinaryOp::kLe || op == BinaryOp::kGt || op == BinaryOp::kGe;
}

/// `lit op x` as `x flipped(op) lit`.
BinaryOp flipped(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;
  }
}

}  // namespace

/// One lowering: the unique table, the typed DAG and the code emitter. It
/// lives for one Program constructor call.
class Lowering {
 public:
  using Op = Program::Op;
  using Type = Program::Type;

  Lowering(Program& program, const StateLayout& layout)
      : program_(program), layout_(layout) {}

  void lower(const std::vector<Expr>& roots) {
    for (size_t v = 0; v < layout_.variable_count(); ++v) {
      const StateLayout::Field& f = layout_.field(v);
      const uint64_t mask = f.bits < 64 ? (uint64_t{1} << f.bits) - 1 : ~uint64_t{0};
      program_.fields_.push_back({f.word, f.shift, mask, f.low, f.shift + f.bits > 64});
    }
    std::vector<uint32_t> ids;
    ids.reserve(roots.size());
    for (const Expr& root : roots) ids.push_back(intern(root));
    for (const uint32_t id : ids) {
      if (nodes_[id].type != Type::kTree) count_uses(id);
    }
    program_.unique_nodes_ = nodes_.size();
    for (size_t r = 0; r < roots.size(); ++r) {
      Program::Root root;
      root.type = nodes_[ids[r]].type;
      root.constant = nodes_[ids[r]].kind == Kind::kLiteral;
      root.entry = static_cast<uint32_t>(code_.size());
      if (root.type == Type::kTree) {
        root.tree = roots[r];
      } else {
        root.reg = emit(ids[r]);
      }
      code_.push_back({Op::kEnd, 0, 0, 0});
      program_.roots_.push_back(std::move(root));
    }
    // Shared subexpressions: one subroutine each, emitted once.
    while (!pending_.empty()) {
      const uint32_t id = pending_.back();
      pending_.pop_back();
      Node& n = nodes_[id];
      shared_entries_[n.shared] = static_cast<uint32_t>(code_.size());
      emit_body(id, n.reg);
      code_.push_back({Op::kReturn, 0, static_cast<uint32_t>(n.shared), 0});
    }
    for (Program::Instr& in : code_) {
      if (in.op == Op::kCall) in.b = shared_entries_[in.a];
    }
    thread_jumps();
    program_.code_ = std::move(code_);
    program_.shared_nodes_ = shared_entries_.size();
  }

 private:
  struct Node {
    Kind kind = Kind::kLiteral;
    uint8_t op = 0;
    Type type = Type::kTree;
    uint8_t arity = 0;
    uint32_t child[3] = {0, 0, 0};
    uint32_t var = 0;
    Value literal;
    uint32_t uses = 0;
    uint32_t reg = 0;     ///< home register
    int32_t shared = -1;  ///< subroutine id once scheduled
  };

  /// Structural identity of a node whose children are already unique.
  struct Key {
    uint8_t kind;
    uint8_t op;
    uint8_t literal_type;
    uint8_t arity;
    uint64_t payload;  ///< literal bits, variable index or name hash
    uint32_t child[3];
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      const uint64_t tag = uint64_t{k.kind} << 24 | uint64_t{k.op} << 16 |
                           uint64_t{k.literal_type} << 8 | k.arity;
      uint64_t h = k.payload * 0x9e3779b97f4a7c15ull;
      h ^= tag + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      for (const uint32_t c : k.child) {
        h ^= c + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      }
      return static_cast<size_t>(h ^ (h >> 29));
    }
  };

  uint32_t intern(const Expr& expr) {
    const Expr::Node* raw = expr.node();
    if (raw == nullptr) throw EvalError("evaluate: empty expression");
    if (const auto it = seen_.find(raw); it != seen_.end()) return it->second;
    Node n;
    n.kind = raw->kind;
    Key key{static_cast<uint8_t>(raw->kind), 0, 0, 0, 0, {0, 0, 0}};
    switch (raw->kind) {
      case Kind::kLiteral:
        n.literal = raw->value;
        key.literal_type = static_cast<uint8_t>(raw->value.type());
        switch (raw->value.type()) {
          case Value::Type::kBool: key.payload = raw->value.as_bool(); break;
          case Value::Type::kInt:
            key.payload = static_cast<uint64_t>(raw->value.as_int());
            break;
          case Value::Type::kDouble:
            key.payload = std::bit_cast<uint64_t>(raw->value.as_number());
            break;
        }
        break;
      case Kind::kIdent: key.payload = std::hash<std::string>{}(raw->name); break;
      case Kind::kVarRef:
        n.var = raw->var_index;
        key.payload = raw->var_index;
        break;
      case Kind::kUnary: n.op = static_cast<uint8_t>(raw->unary_op); break;
      case Kind::kBinary: n.op = static_cast<uint8_t>(raw->binary_op); break;
      case Kind::kCall: n.op = static_cast<uint8_t>(raw->call_op); break;
      case Kind::kIte: break;
    }
    key.op = n.op;
    n.arity = static_cast<uint8_t>(std::min<size_t>(raw->children.size(), 3));
    key.arity = n.arity;
    for (size_t c = 0; c < n.arity; ++c) {
      n.child[c] = intern(raw->children[c]);
      key.child[c] = n.child[c];
    }
    uint32_t id = 0;
    if (const auto it = unique_.find(key); it != unique_.end()) {
      id = it->second;
    } else {
      n.type = raw->children.size() > 3 ? Type::kTree : type_of(n);
      n.reg = n.kind == Kind::kLiteral ? constant(n.literal) : new_register();
      id = static_cast<uint32_t>(nodes_.size());
      nodes_.push_back(n);
      unique_.emplace(key, id);
    }
    seen_.emplace(raw, id);
    return id;
  }

  /// The static type of a node from its children's, or kTree where the tree
  /// interpreter's result type depends on the state or its evaluation would
  /// raise a type error.
  Type type_of(const Node& n) const {
    Type t[3] = {Type::kTree, Type::kTree, Type::kTree};
    for (size_t c = 0; c < n.arity; ++c) {
      t[c] = nodes_[n.child[c]].type;
      if (t[c] == Type::kTree) return Type::kTree;
    }
    const auto number = [](Type x) { return x == Type::kInt || x == Type::kDouble; };
    const bool ints = t[0] == Type::kInt && t[1] == Type::kInt;
    const bool numbers = number(t[0]) && number(t[1]);
    const bool bools = t[0] == Type::kBool && t[1] == Type::kBool;
    switch (n.kind) {
      case Kind::kLiteral:
        switch (n.literal.type()) {
          case Value::Type::kBool: return Type::kBool;
          case Value::Type::kInt: return Type::kInt;
          case Value::Type::kDouble: return Type::kDouble;
        }
        return Type::kTree;
      case Kind::kIdent: return Type::kTree;
      case Kind::kVarRef:
        return n.var < layout_.variable_count() ? Type::kInt : Type::kTree;
      case Kind::kUnary:
        if (static_cast<UnaryOp>(n.op) == UnaryOp::kNot) {
          return t[0] == Type::kBool ? Type::kBool : Type::kTree;
        }
        return number(t[0]) ? t[0] : Type::kTree;
      case Kind::kBinary:
        switch (static_cast<BinaryOp>(n.op)) {
          case BinaryOp::kAdd:
          case BinaryOp::kSub:
          case BinaryOp::kMul:
            return ints ? Type::kInt : numbers ? Type::kDouble : Type::kTree;
          case BinaryOp::kDiv: return numbers ? Type::kDouble : Type::kTree;
          case BinaryOp::kAnd:
          case BinaryOp::kOr:
          case BinaryOp::kImplies:
          case BinaryOp::kIff: return bools ? Type::kBool : Type::kTree;
          case BinaryOp::kEq:
          case BinaryOp::kNe: return bools || numbers ? Type::kBool : Type::kTree;
          case BinaryOp::kLt:
          case BinaryOp::kLe:
          case BinaryOp::kGt:
          case BinaryOp::kGe: return numbers ? Type::kBool : Type::kTree;
        }
        return Type::kTree;
      case Kind::kCall:
        switch (static_cast<CallOp>(n.op)) {
          case CallOp::kMin:
          case CallOp::kMax:
            if (n.arity != 2) return Type::kTree;
            return ints ? Type::kInt : numbers ? Type::kDouble : Type::kTree;
          case CallOp::kFloor:
          case CallOp::kCeil:
            return n.arity == 1 && number(t[0]) ? Type::kInt : Type::kTree;
          case CallOp::kPow:
            return n.arity == 2 && numbers ? Type::kDouble : Type::kTree;
          case CallOp::kMod: return n.arity == 2 && ints ? Type::kInt : Type::kTree;
          case CallOp::kLog:
            if (n.arity == 1) return number(t[0]) ? Type::kDouble : Type::kTree;
            return n.arity == 2 && numbers ? Type::kDouble : Type::kTree;
        }
        return Type::kTree;
      case Kind::kIte:
        return n.arity == 3 && t[0] == Type::kBool && t[1] == t[2] ? t[1] : Type::kTree;
    }
    return Type::kTree;
  }

  /// Count the references each node gets from the typed roots' code: one per
  /// root and one per parent edge, over each node reached once.
  void count_uses(uint32_t id) {
    Node& n = nodes_[id];
    if (n.uses++ > 0) return;
    for (size_t c = 0; c < n.arity; ++c) count_uses(n.child[c]);
  }

  uint32_t new_register() {
    program_.image_.push_back({0});
    return static_cast<uint32_t>(program_.image_.size() - 1);
  }

  uint32_t constant(const Value& value) {
    const uint32_t reg = new_register();
    Program::Slot& slot = program_.image_[reg];
    switch (value.type()) {
      case Value::Type::kBool: slot.i = value.as_bool() ? 1 : 0; break;
      case Value::Type::kInt: slot.i = value.as_int(); break;
      case Value::Type::kDouble: slot.d = value.as_number(); break;
    }
    return reg;
  }

  uint32_t push(Op op, uint32_t dst, uint32_t a = 0, uint32_t b = 0) {
    code_.push_back({op, dst, a, b});
    return static_cast<uint32_t>(code_.size() - 1);
  }

  void patch(uint32_t at) {
    Program::Instr& in = code_[at];
    const auto here = static_cast<uint32_t>(code_.size());
    if (in.op == Op::kJump) {
      in.a = here;
    } else {
      in.b = here;
    }
  }

  /// Code that leaves node `id`'s value in a register; returns the register.
  uint32_t emit(uint32_t id) {
    Node& n = nodes_[id];
    switch (n.kind) {
      case Kind::kLiteral: return n.reg;
      case Kind::kVarRef: push(Op::kLoad, n.reg, n.var); return n.reg;
      default: break;
    }
    if (n.uses > 1) {
      if (n.shared < 0) {
        n.shared = static_cast<int32_t>(shared_entries_.size());
        shared_entries_.push_back(0);
        pending_.push_back(id);
      }
      push(Op::kCall, 0, static_cast<uint32_t>(n.shared));
      return n.reg;
    }
    emit_body(id, n.reg);
    return n.reg;
  }

  /// True for a node computed by its own code at its one use: neither a
  /// literal, nor a variable, nor a shared subroutine.
  bool computed_once(uint32_t id) const {
    const Node& n = nodes_[id];
    return n.kind != Kind::kLiteral && n.kind != Kind::kVarRef && n.uses <= 1;
  }

  /// Code that leaves node `id`'s value in register `dst`.
  void place(uint32_t id, uint32_t dst) {
    const Node& n = nodes_[id];
    if (computed_once(id)) {
      emit_body(id, dst);
    } else if (n.kind == Kind::kVarRef) {
      push(Op::kLoad, dst, n.var);
    } else {
      push(Op::kMove, dst, emit(id));
    }
  }

  /// Register holding node `id`'s value (in `reg`) as a double.
  uint32_t as_double(uint32_t id, uint32_t reg) {
    const Node& n = nodes_[id];
    if (n.type == Type::kDouble) return reg;
    if (n.kind == Kind::kLiteral) return constant(Value::of(n.literal.as_number()));
    const uint32_t out = new_register();
    push(Op::kIntToDouble, out, reg);
    return out;
  }

  /// The node's own computation, its operands' code first, writing `dst`.
  void emit_body(uint32_t id, uint32_t dst) {
    const Node& n = nodes_[id];
    switch (n.kind) {
      case Kind::kLiteral:
      case Kind::kVarRef:
        place(id, dst);
        return;
      case Kind::kIdent:  // untyped: its root is a tree root, never lowered
        throw EvalError("lowering: unresolved identifier");
      case Kind::kUnary: {
        const uint32_t a = emit(n.child[0]);
        if (static_cast<UnaryOp>(n.op) == UnaryOp::kNot) {
          push(Op::kNot, dst, a);
        } else {
          push(n.type == Type::kInt ? Op::kNegI : Op::kNegD, dst, a);
        }
        return;
      }
      case Kind::kBinary: emit_binary(n, dst); return;
      case Kind::kCall: emit_call(n, dst); return;
      case Kind::kIte: {
        const uint32_t condition = emit(n.child[0]);
        const uint32_t to_else = push(Op::kJumpIfFalse, 0, condition);
        place(n.child[1], dst);
        const uint32_t to_end = push(Op::kJump, 0);
        patch(to_else);
        place(n.child[2], dst);
        patch(to_end);
        return;
      }
    }
  }

  void emit_binary(const Node& n, uint32_t dst) {
    const auto op = static_cast<BinaryOp>(n.op);
    if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
      // A computed left operand lands in dst itself, so the skips of a chain
      // like (a & b) & c test one register and thread into one jump.
      uint32_t lhs = dst;
      if (computed_once(n.child[0])) {
        emit_body(n.child[0], dst);
      } else {
        lhs = emit(n.child[0]);
      }
      const uint32_t skip =
          push(op == BinaryOp::kAnd ? Op::kAndJump : Op::kOrJump, dst, lhs);
      place(n.child[1], dst);
      patch(skip);
      return;
    }
    const Node& left = nodes_[n.child[0]];
    const Node& right = nodes_[n.child[1]];
    if (is_comparison(op) && left.type != Type::kBool && right.type != Type::kBool) {
      // A variable against a literal reads its field in the comparison.
      const Node* var = nullptr;
      const Node* literal = nullptr;
      BinaryOp fused = op;
      if (left.kind == Kind::kVarRef && right.kind == Kind::kLiteral) {
        var = &left;
        literal = &right;
      } else if (left.kind == Kind::kLiteral && right.kind == Kind::kVarRef) {
        var = &right;
        literal = &left;
        fused = flipped(op);
      }
      if (var != nullptr) {
        const uint32_t field = var->var;
        const uint32_t bound = constant(Value::of(literal->literal.as_number()));
        push(compare_op(fused, Op::kEqVar), dst, field, bound);
        return;
      }
    }
    // A variable plus or minus an int literal reads its field in the sum.
    if (n.type == Type::kInt && (op == BinaryOp::kAdd || op == BinaryOp::kSub) &&
        left.kind == Kind::kVarRef && right.kind == Kind::kLiteral) {
      push(op == BinaryOp::kAdd ? Op::kAddVar : Op::kSubVar, dst, left.var, right.reg);
      return;
    }
    if (n.type == Type::kInt && op == BinaryOp::kAdd && left.kind == Kind::kLiteral &&
        right.kind == Kind::kVarRef) {
      push(Op::kAddVar, dst, right.var, left.reg);
      return;
    }
    // The tree computes the right operand first.
    uint32_t b = emit(n.child[1]);
    uint32_t a = emit(n.child[0]);
    const Type lt = nodes_[n.child[0]].type;
    const Type rt = nodes_[n.child[1]].type;
    const bool ints = lt == Type::kInt && rt == Type::kInt;
    switch (op) {
      case BinaryOp::kImplies: push(Op::kImplies, dst, a, b); return;
      case BinaryOp::kIff: push(Op::kIff, dst, a, b); return;
      default: break;
    }
    if (lt == Type::kBool) {  // = or != of two bools
      push(op == BinaryOp::kEq ? Op::kEqB : Op::kNeB, dst, a, b);
      return;
    }
    if (is_comparison(op)) {
      if (ints) {
        push(compare_op(op, Op::kEqI), dst, a, b);
      } else {
        b = as_double(n.child[1], b);
        a = as_double(n.child[0], a);
        push(compare_op(op, Op::kEqD), dst, a, b);
      }
      return;
    }
    if (ints && op != BinaryOp::kDiv) {
      const Op int_op = op == BinaryOp::kAdd   ? Op::kAddI
                        : op == BinaryOp::kSub ? Op::kSubI
                                               : Op::kMulI;
      push(int_op, dst, a, b);
      return;
    }
    b = as_double(n.child[1], b);
    a = as_double(n.child[0], a);
    switch (op) {
      case BinaryOp::kAdd: push(Op::kAddD, dst, a, b); return;
      case BinaryOp::kSub: push(Op::kSubD, dst, a, b); return;
      case BinaryOp::kMul: push(Op::kMulD, dst, a, b); return;
      default: push(Op::kDivD, dst, a, b); return;
    }
  }

  /// The comparison op of `op` in the family starting at `eq` (Eq, Ne, Lt,
  /// Le, Gt, Ge in that order).
  static Op compare_op(BinaryOp op, Op eq) {
    const auto base = static_cast<uint8_t>(eq);
    switch (op) {
      case BinaryOp::kEq: return eq;
      case BinaryOp::kNe: return static_cast<Op>(base + 1);
      case BinaryOp::kLt: return static_cast<Op>(base + 2);
      case BinaryOp::kLe: return static_cast<Op>(base + 3);
      case BinaryOp::kGt: return static_cast<Op>(base + 4);
      default: return static_cast<Op>(base + 5);
    }
  }

  void emit_call(const Node& n, uint32_t dst) {
    // Arguments left to right, as the tree's loop computes them.
    uint32_t a = emit(n.child[0]);
    uint32_t b = n.arity > 1 ? emit(n.child[1]) : 0;
    const auto op = static_cast<CallOp>(n.op);
    if (n.type == Type::kInt && (op == CallOp::kMin || op == CallOp::kMax ||
                                 op == CallOp::kMod)) {
      push(op == CallOp::kMin ? Op::kMinI : op == CallOp::kMax ? Op::kMaxI : Op::kModI,
           dst, a, b);
      return;
    }
    a = as_double(n.child[0], a);
    if (n.arity > 1) b = as_double(n.child[1], b);
    switch (op) {
      case CallOp::kMin: push(Op::kMinD, dst, a, b); return;
      case CallOp::kMax: push(Op::kMaxD, dst, a, b); return;
      case CallOp::kFloor: push(Op::kFloorD, dst, a); return;
      case CallOp::kCeil: push(Op::kCeilD, dst, a); return;
      case CallOp::kPow: push(Op::kPowD, dst, a, b); return;
      case CallOp::kLog: push(n.arity > 1 ? Op::kLogBaseD : Op::kLogD, dst, a, b); return;
      case CallOp::kMod: return;  // typed kInt above
    }
  }

  /// A taken `&`/`|` skip lands on the next skip of the same chain, which
  /// then jumps too: go straight to where the chain ends.
  void thread_jumps() {
    for (Program::Instr& in : code_) {
      if (in.op != Op::kAndJump && in.op != Op::kOrJump) continue;
      while (code_[in.b].op == in.op && code_[in.b].a == in.dst &&
             code_[in.b].dst == in.dst) {
        in.b = code_[in.b].b;
      }
    }
  }

  Program& program_;
  const StateLayout& layout_;
  std::vector<Node> nodes_;
  std::unordered_map<const Expr::Node*, uint32_t> seen_;
  std::unordered_map<Key, uint32_t, KeyHash> unique_;
  std::vector<Program::Instr> code_;
  std::vector<uint32_t> pending_;         ///< shared nodes awaiting their body
  std::vector<uint32_t> shared_entries_;  ///< subroutine entry per shared id
};

Program::Program(const std::vector<Expr>& roots, const StateLayout& layout) {
  Lowering(*this, layout).lower(roots);
}

Program::Frame::Frame(const Program& program)
    : regs_(program.image_),
      done_(program.shared_nodes_, 0u),
      values_(program.fields_.size()) {
  stack_.reserve(16);
}

void Program::run(Frame& frame, uint32_t pc) const {
  const Instr* code = code_.data();
  const Field* fields = fields_.data();
  Slot* r = frame.regs_.data();
  const uint64_t* words = frame.words_;
  const auto field = [&](uint32_t f) {
    const Field& x = fields[f];
    return load(words, x.word, x.shift, x.mask, x.low, x.wide);
  };
  for (;;) {
    const Instr& in = code[pc++];
    switch (in.op) {
      case Op::kEnd: return;
      case Op::kCall:
        if (frame.done_[in.a] != frame.epoch_) {
          frame.stack_.push_back(pc);
          pc = in.b;
        }
        break;
      case Op::kReturn:
        frame.done_[in.a] = frame.epoch_;
        pc = frame.stack_.back();
        frame.stack_.pop_back();
        break;
      case Op::kJump: pc = in.a; break;
      case Op::kJumpIfFalse:
        if (r[in.a].i == 0) pc = in.b;
        break;
      case Op::kAndJump:
        if (r[in.a].i == 0) {
          r[in.dst].i = 0;
          pc = in.b;
        }
        break;
      case Op::kOrJump:
        if (r[in.a].i != 0) {
          r[in.dst].i = 1;
          pc = in.b;
        }
        break;
      case Op::kMove: r[in.dst] = r[in.a]; break;
      case Op::kLoad: r[in.dst].i = field(in.a); break;
      case Op::kAddVar: r[in.dst].i = field(in.a) + r[in.b].i; break;
      case Op::kSubVar: r[in.dst].i = field(in.a) - r[in.b].i; break;
      case Op::kIntToDouble: r[in.dst].d = static_cast<double>(r[in.a].i); break;
      case Op::kNot: r[in.dst].i = r[in.a].i == 0; break;
      case Op::kEqB: r[in.dst].i = r[in.a].i == r[in.b].i; break;
      case Op::kNeB: r[in.dst].i = r[in.a].i != r[in.b].i; break;
      case Op::kImplies: r[in.dst].i = r[in.a].i == 0 || r[in.b].i != 0; break;
      case Op::kIff: r[in.dst].i = r[in.a].i == r[in.b].i; break;
      case Op::kNegI: r[in.dst].i = -r[in.a].i; break;
      case Op::kAddI: r[in.dst].i = r[in.a].i + r[in.b].i; break;
      case Op::kSubI: r[in.dst].i = r[in.a].i - r[in.b].i; break;
      case Op::kMulI: r[in.dst].i = r[in.a].i * r[in.b].i; break;
      case Op::kMinI: r[in.dst].i = std::min(r[in.a].i, r[in.b].i); break;
      case Op::kMaxI: r[in.dst].i = std::max(r[in.a].i, r[in.b].i); break;
      case Op::kModI:
        if (r[in.b].i == 0) throw EvalError("mod by zero");
        r[in.dst].i = r[in.a].i % r[in.b].i;
        break;
      case Op::kNegD: r[in.dst].d = -r[in.a].d; break;
      case Op::kAddD: r[in.dst].d = r[in.a].d + r[in.b].d; break;
      case Op::kSubD: r[in.dst].d = r[in.a].d - r[in.b].d; break;
      case Op::kMulD: r[in.dst].d = r[in.a].d * r[in.b].d; break;
      case Op::kDivD:
        if (r[in.b].d == 0.0) throw EvalError("division by zero");
        r[in.dst].d = r[in.a].d / r[in.b].d;
        break;
      case Op::kMinD: r[in.dst].d = std::min(r[in.a].d, r[in.b].d); break;
      case Op::kMaxD: r[in.dst].d = std::max(r[in.a].d, r[in.b].d); break;
      case Op::kPowD: r[in.dst].d = std::pow(r[in.a].d, r[in.b].d); break;
      case Op::kLogD: r[in.dst].d = std::log(r[in.a].d); break;
      case Op::kLogBaseD: r[in.dst].d = std::log(r[in.a].d) / std::log(r[in.b].d); break;
      case Op::kFloorD: r[in.dst].i = static_cast<int64_t>(std::floor(r[in.a].d)); break;
      case Op::kCeilD: r[in.dst].i = static_cast<int64_t>(std::ceil(r[in.a].d)); break;
      case Op::kEqI:
        r[in.dst].i = static_cast<double>(r[in.a].i) == static_cast<double>(r[in.b].i);
        break;
      case Op::kNeI:
        r[in.dst].i = static_cast<double>(r[in.a].i) != static_cast<double>(r[in.b].i);
        break;
      case Op::kLtI:
        r[in.dst].i = static_cast<double>(r[in.a].i) < static_cast<double>(r[in.b].i);
        break;
      case Op::kLeI:
        r[in.dst].i = static_cast<double>(r[in.a].i) <= static_cast<double>(r[in.b].i);
        break;
      case Op::kGtI:
        r[in.dst].i = static_cast<double>(r[in.a].i) > static_cast<double>(r[in.b].i);
        break;
      case Op::kGeI:
        r[in.dst].i = static_cast<double>(r[in.a].i) >= static_cast<double>(r[in.b].i);
        break;
      case Op::kEqD: r[in.dst].i = r[in.a].d == r[in.b].d; break;
      case Op::kNeD: r[in.dst].i = r[in.a].d != r[in.b].d; break;
      case Op::kLtD: r[in.dst].i = r[in.a].d < r[in.b].d; break;
      case Op::kLeD: r[in.dst].i = r[in.a].d <= r[in.b].d; break;
      case Op::kGtD: r[in.dst].i = r[in.a].d > r[in.b].d; break;
      case Op::kGeD: r[in.dst].i = r[in.a].d >= r[in.b].d; break;
      case Op::kEqVar: r[in.dst].i = static_cast<double>(field(in.a)) == r[in.b].d; break;
      case Op::kNeVar: r[in.dst].i = static_cast<double>(field(in.a)) != r[in.b].d; break;
      case Op::kLtVar: r[in.dst].i = static_cast<double>(field(in.a)) < r[in.b].d; break;
      case Op::kLeVar: r[in.dst].i = static_cast<double>(field(in.a)) <= r[in.b].d; break;
      case Op::kGtVar: r[in.dst].i = static_cast<double>(field(in.a)) > r[in.b].d; break;
      case Op::kGeVar: r[in.dst].i = static_cast<double>(field(in.a)) >= r[in.b].d; break;
    }
  }
}

Value Program::tree_value(Frame& frame, const Root& root) const {
  if (frame.values_epoch_ != frame.epoch_) {
    for (size_t v = 0; v < fields_.size(); ++v) {
      const Field& f = fields_[v];
      const int64_t value = load(frame.words_, f.word, f.shift, f.mask, f.low, f.wide);
      frame.values_[v] = static_cast<int32_t>(value);
    }
    frame.values_epoch_ = frame.epoch_;
  }
  return root.tree.evaluate(frame.values_);
}

// The slow paths: a root whose type is not the one its use asks for (the
// value's own accessor raises the tree's EvalError), or a tree root.

bool Program::eval_bool_slow(Frame& frame, const Root& root) const {
  if (root.type == Type::kTree) return tree_value(frame, root).as_bool();
  run(frame, root.entry);
  const Slot value = frame.regs_[root.reg];
  return (root.type == Type::kInt ? Value::of(value.i) : Value::of(value.d)).as_bool();
}

double Program::eval_number_slow(Frame& frame, const Root& root) const {
  if (root.type == Type::kTree) return tree_value(frame, root).as_number();
  run(frame, root.entry);
  const Slot value = frame.regs_[root.reg];
  if (root.type == Type::kInt) return static_cast<double>(value.i);
  return Value::of(value.i != 0).as_number();
}

bool Program::eval_int_slow(Frame& frame, const Root& root, int64_t& out) const {
  if (root.type == Type::kTree) {
    const Value value = tree_value(frame, root);
    if (!value.is_int()) return false;
    out = value.as_int();
    return true;
  }
  run(frame, root.entry);
  return false;
}

// ---------------------------------------------------------------------------
// ModelProgram

namespace {

/// Every root of `model` in a fixed order, recording each one's index in the
/// tables of `out`.
std::vector<Expr> model_roots(const CompiledModel& model, ModelProgram& out) {
  std::vector<Expr> roots;
  const auto add = [&](const Expr& expr) {
    roots.push_back(expr);
    return static_cast<uint32_t>(roots.size() - 1);
  };
  const auto updates = [&](const std::vector<std::pair<uint32_t, Expr>>& assignments) {
    std::vector<ModelProgram::Update> out_updates;
    for (const auto& [variable, value] : assignments) {
      out_updates.push_back({variable, add(value)});
    }
    return out_updates;
  };
  for (const CompiledCommand& command : model.commands) {
    ModelProgram::Command compiled;
    compiled.guard = add(command.guard);
    if (model.type == ModelType::kMdp) {
      for (const CompiledBranch& branch : command.branches) {
        const uint32_t probability = add(branch.probability);
        compiled.branches.push_back({probability, updates(branch.assignments)});
      }
    } else {
      compiled.rate = add(command.rate);
      compiled.updates = updates(command.assignments);
    }
    out.commands.push_back(std::move(compiled));
  }
  for (const CompiledLabel& label : model.labels) {
    out.labels.push_back(add(label.condition));
  }
  for (const CompiledRewardStruct& rewards : model.rewards) {
    std::vector<ModelProgram::RewardItem> items;
    for (const symbolic::RewardItem& item : rewards.items) {
      const uint32_t guard = add(item.guard);
      items.push_back({guard, add(item.value)});
    }
    out.rewards.push_back(std::move(items));
  }
  return roots;
}

}  // namespace

ModelProgram::ModelProgram(const CompiledModel& model, const StateLayout& layout)
    : program(model_roots(model, *this), layout) {}

}  // namespace autosec::symbolic

// The compiled form of a model's expressions: every resolved expression of a
// CompiledModel (command guards, rates, update right-hand sides, mdp branch
// probabilities, label conditions and reward items) hash-consed into one DAG
// and lowered into one flat register program, once per model. The explorer
// runs it on each state's packed words while building the state space, and
// StateSpace runs it for label masks and reward vectors afterwards.
//
// Hash-consing: structurally equal subexpressions (same node kinds,
// operators, variable indices and literal bits, the ExprAllocUnique idiom: a
// structural hash, then a compare of the already-unique children) become one
// node, wherever they came from — a formula substituted into twelve guards is
// one node. The unique table is local to one lowering, so lowerings on
// different threads share nothing.
//
// Typing: each unique node's type (bool, int or double) is resolved at
// lowering time, so an instruction never inspects a value's type. A root
// whose expression cannot be typed statically — an `?:` whose branches differ
// in type, an operand of the wrong type, an unresolved name — is evaluated by
// the tree interpreter (Expr::evaluate) instead; the automotive models and the
// random models of the differential harness never contain one.
//
// Semantics are the tree interpreter's, exactly:
//  * each unique node is computed at most once per state (a shared node is a
//    subroutine whose result is kept until the next state), and only when
//    the tree would compute it: `&`, `|` and `?:` jump over exactly the
//    operands the tree skips, so a skipped division by zero raises nothing;
//  * a reached division or mod by zero, or a root of the wrong type for its
//    use (a number where a guard needs a bool), raises the tree's EvalError;
//  * operands are computed in the tree's order (calls left to right, other
//    binary operators right operand first), and double arithmetic performs
//    the tree's operations in its order, so every rate, probability and
//    reward is bit-identical. Numbers compare as doubles, as
//    Value::as_number does.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "symbolic/expr.hpp"
#include "symbolic/model.hpp"
#include "symbolic/state_store.hpp"

namespace autosec::symbolic {

class Program {
 public:
  /// Lower `roots` (resolved expressions) into one program reading states
  /// packed by `layout`; root i of the program is roots[i].
  Program(const std::vector<Expr>& roots, const StateLayout& layout);

 private:
  union Slot {
    int64_t i;  ///< ints, and bools as 0/1
    double d;
  };

 public:
  /// The mutable side of evaluation: registers, which shared nodes are done
  /// for the current state, and the state being read. One per thread.
  class Frame {
   public:
    explicit Frame(const Program& program);
    /// Evaluate the following roots on the state packed in `words`, which
    /// must stay valid until the next begin().
    void begin(const uint64_t* words) {
      words_ = words;
      stack_.clear();
      if (++epoch_ == 0) {
        std::fill(done_.begin(), done_.end(), 0u);
        epoch_ = 1;
      }
    }

   private:
    friend class Program;
    std::vector<Slot> regs_;
    std::vector<uint32_t> done_;  ///< per shared node: the epoch it was computed in
    std::vector<uint32_t> stack_;  ///< return addresses of shared-node calls
    const uint64_t* words_ = nullptr;
    uint32_t epoch_ = 0;
    std::vector<int32_t> values_;  ///< unpacked state, for tree-evaluated roots
    uint32_t values_epoch_ = 0;
  };

  /// Evaluate root `root` on the frame's state, as Expr::evaluate_bool,
  /// evaluate_number and evaluate would: the same values and the same
  /// EvalErrors.
  bool eval_bool(Frame& frame, uint32_t root) const {
    const Root& r = roots_[root];
    if (r.type != Type::kBool) return eval_bool_slow(frame, r);
    if (!r.constant) run(frame, r.entry);
    return frame.regs_[r.reg].i != 0;
  }
  double eval_number(Frame& frame, uint32_t root) const {
    const Root& r = roots_[root];
    if (r.type != Type::kDouble) return eval_number_slow(frame, r);
    if (!r.constant) run(frame, r.entry);
    return frame.regs_[r.reg].d;
  }
  /// An update's right-hand side: true with `out` set when the value is an
  /// integer, false when it is not (which the explorer reports).
  bool eval_int(Frame& frame, uint32_t root, int64_t& out) const {
    const Root& r = roots_[root];
    if (r.type != Type::kInt) return eval_int_slow(frame, r, out);
    if (!r.constant) run(frame, r.entry);
    out = frame.regs_[r.reg].i;
    return true;
  }

  /// True when root `root` is a literal, so it has one value in every state.
  bool constant(uint32_t root) const { return roots_[root].constant; }

  /// Unique nodes after hash-consing.
  size_t unique_nodes() const { return unique_nodes_; }

 private:
  friend class Lowering;

  enum class Type : uint8_t { kBool, kInt, kDouble, kTree };

  struct Root {
    uint32_t entry = 0;  ///< first instruction
    uint32_t reg = 0;    ///< register holding the value after the run
    Type type = Type::kTree;
    bool constant = false;
    Expr tree;  ///< kTree roots only
  };

  enum class Op : uint8_t;

  /// One instruction: `dst` is written, `a`/`b` are registers, fields,
  /// shared-node ids or jump targets as the op says.
  struct Instr {
    Op op;
    uint32_t dst;
    uint32_t a;
    uint32_t b;
  };

  /// Where a variable sits in the packed words (StateLayout's field, with
  /// its mask precomputed).
  struct Field {
    uint32_t word;
    uint32_t shift;
    uint64_t mask;
    int32_t low;
    bool wide;  ///< straddles two words
  };

  void run(Frame& frame, uint32_t pc) const;
  bool eval_bool_slow(Frame& frame, const Root& root) const;
  double eval_number_slow(Frame& frame, const Root& root) const;
  bool eval_int_slow(Frame& frame, const Root& root, int64_t& out) const;
  Value tree_value(Frame& frame, const Root& root) const;

  std::vector<Instr> code_;
  std::vector<Field> fields_;
  std::vector<Slot> image_;  ///< initial registers: the literals
  size_t shared_nodes_ = 0;
  size_t unique_nodes_ = 0;
  std::vector<Root> roots_;
};

/// Every expression of one CompiledModel lowered as one Program reading
/// states packed by `layout` (the model's), with the root index of each by
/// role.
struct ModelProgram {
  ModelProgram(const CompiledModel& model, const StateLayout& layout);

  struct Update {
    uint32_t variable;
    uint32_t root;
  };
  struct Branch {
    uint32_t probability;
    std::vector<Update> updates;
  };
  struct Command {
    uint32_t guard = 0;
    uint32_t rate = 0;  ///< ctmc only
    std::vector<Update> updates;   ///< ctmc only
    std::vector<Branch> branches;  ///< mdp only
  };
  struct RewardItem {
    uint32_t guard;
    uint32_t value;
  };

  std::vector<Command> commands;  ///< in model.commands order
  std::vector<uint32_t> labels;   ///< in model.labels order
  std::vector<std::vector<RewardItem>> rewards;  ///< in model.rewards order
  Program program;  ///< built last, from the roots the tables above index
};

}  // namespace autosec::symbolic

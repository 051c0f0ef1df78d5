#include "csl/lumped.hpp"

#include <memory>

#include "csl/property_parser.hpp"

namespace autosec::csl {

LumpedCheckResult check_lumped(const symbolic::StateSpace& space,
                               const Property& property,
                               const SessionOptions& options) {
  // Non-owning alias: the session only lives for this call, well inside the
  // caller-guaranteed lifetime of `space`.
  EngineSession full(
      std::shared_ptr<const symbolic::StateSpace>(&space,
                                                  [](const symbolic::StateSpace*) {}),
      options);
  const ctmc::Ctmc& chain = full.chain();

  // Observations the property depends on.
  std::vector<std::vector<bool>> masks;
  if (property.left.is_valid()) masks.push_back(full.satisfying(property.left));
  if (property.right.is_valid()) masks.push_back(full.satisfying(property.right));
  std::vector<std::vector<double>> rewards;
  if (property.kind == PropertyKind::kCumulativeReward ||
      property.kind == PropertyKind::kInstantaneousReward ||
      property.kind == PropertyKind::kSteadyStateReward ||
      property.kind == PropertyKind::kReachabilityReward) {
    rewards.push_back(space.reward_vector(property.reward_name));
  }
  const std::vector<double> initial = space.initial_distribution();

  ctmc::LumpingResult lumping = ctmc::lump_preserving(chain, masks, rewards, &initial);

  // The quotient as a state space over the same compiled model: block b is
  // state b, valued as its representative. Every observation above is
  // block-constant, so the property's formulas and reward evaluate on the
  // representatives exactly as on the whole block, and the initial state's
  // block (a block of its own: the initial mass is a signature) is the
  // quotient's initial state.
  auto store = std::make_shared<symbolic::StateStore>(space.model());
  bool inserted = false;
  for (const uint32_t representative : lumping.representative) {
    store->intern(space.state_values(representative), inserted);
  }
  const size_t transitions = lumping.quotient.rates().nonzeros();
  EngineSession quotient(
      std::make_shared<const symbolic::StateSpace>(
          space.model_ptr(), std::move(store), lumping.block_of[space.initial_state()],
          std::move(lumping.quotient), transitions),
      options);

  LumpedCheckResult result;
  result.value = quotient.check(property);
  result.original_states = chain.state_count();
  result.lumped_states = lumping.block_count;
  return result;
}

LumpedCheckResult check_lumped(const symbolic::StateSpace& space,
                               std::string_view property_text,
                               const SessionOptions& options) {
  return check_lumped(space, parse_property(property_text), options);
}

}  // namespace autosec::csl

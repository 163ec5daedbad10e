#include "testing/mutants.h"

#include <stdexcept>
#include <string>

namespace ftc::testing {

using domination::Demands;

Mutation parse_mutation(const std::string& name) {
  if (name == "none") return Mutation::kNone;
  if (name == "rounding-under-request") return Mutation::kRoundingUnderRequest;
  if (name == "rounding-drop-last-coin") return Mutation::kRoundingDropLastCoin;
  if (name == "maintainer-no-promotion") return Mutation::kMaintainerNoPromotion;
  throw std::invalid_argument("unknown mutation '" + name + "'");
}

const char* mutation_name(Mutation m) {
  switch (m) {
    case Mutation::kNone: return "none";
    case Mutation::kRoundingUnderRequest: return "rounding-under-request";
    case Mutation::kRoundingDropLastCoin: return "rounding-drop-last-coin";
    case Mutation::kMaintainerNoPromotion: return "maintainer-no-promotion";
  }
  return "?";
}

algo::RoundingResult round_fractional_mutant(
    const graph::Graph& g, const domination::FractionalSolution& x,
    const Demands& demands, std::uint64_t seed, Mutation mutation) {
  if (mutation == Mutation::kRoundingUnderRequest) {
    Demands believed = demands;
    for (std::int32_t& k : believed) --k;
    return algo::round_fractional(g, x, believed, seed);
  }
  if (mutation == Mutation::kRoundingDropLastCoin && !x.x.empty()) {
    domination::FractionalSolution dropped = x;
    dropped.x.back() = 0.0;
    return algo::round_fractional(g, dropped, demands, seed);
  }
  return algo::round_fractional(g, x, demands, seed);
}

}  // namespace ftc::testing

#include "runner/params.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/json.h"

namespace vanet::runner {

int ParamSet::getInt(const std::string& name, int fallback) const {
  constexpr double kMin = std::numeric_limits<int>::min();
  constexpr double kMax = std::numeric_limits<int>::max();
  const double value = get(name, fallback);
  // Written so NaN fails the range test too.
  if (!(value >= kMin && value <= kMax) || std::trunc(value) != value) {
    throw std::invalid_argument(name + " must be an integer in int range, "
                                "got " + json::num(value));
  }
  return static_cast<int>(value);
}

}  // namespace vanet::runner

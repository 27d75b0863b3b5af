#pragma once

/// \file params.h
/// Named parameter sets for the experiment-campaign engine. Every tunable
/// of a registered scenario is a named double (booleans are 0/1, counts
/// are integral doubles), so sweep grids, CSV columns, and JSON summaries
/// share one uniform value space.

#include <map>
#include <string>

namespace vanet::runner {

/// An ordered name -> value map. Ordering is lexicographic by name, which
/// keeps every derived artefact (expansion order aside, CSV columns, JSON
/// keys) deterministic.
class ParamSet {
 public:
  ParamSet() = default;
  ParamSet(std::initializer_list<std::pair<const std::string, double>> init)
      : values_(init) {}

  /// Sets or overwrites `name`.
  void set(const std::string& name, double value) { values_[name] = value; }

  bool has(const std::string& name) const { return values_.count(name) > 0; }

  /// Returns the value of `name`, or `fallback` when absent.
  double get(const std::string& name, double fallback) const {
    const auto it = values_.find(name);
    return it != values_.end() ? it->second : fallback;
  }

  /// The value of `name` as an int, or `fallback` when absent. Throws
  /// std::invalid_argument naming the param when the value is not a
  /// whole number within int range: a count of 2.5 cars must not run as
  /// 2, and 1e10 rounds must not reach an undefined conversion.
  int getInt(const std::string& name, int fallback) const;

  bool getBool(const std::string& name, bool fallback) const {
    return get(name, fallback ? 1.0 : 0.0) != 0.0;
  }

  /// Applies every entry of `overrides` on top of this set.
  void apply(const ParamSet& overrides) {
    for (const auto& [name, value] : overrides.values_) {
      values_[name] = value;
    }
  }

  const std::map<std::string, double>& values() const noexcept {
    return values_;
  }

  std::size_t size() const noexcept { return values_.size(); }

 private:
  std::map<std::string, double> values_;
};

}  // namespace vanet::runner

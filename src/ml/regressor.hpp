// Common interface for regression models, enabling the autotuner to chain
// per-parameter predictors regardless of the model family behind each.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.hpp"
#include "util/json.hpp"

namespace wavetune::ml {

class Regressor {
public:
  virtual ~Regressor() = default;

  virtual double predict(std::span<const double> x) const = 0;

  /// Model family identifier ("linear", "rep_tree", "m5_tree").
  virtual std::string kind() const = 0;

  /// Human-readable rendering (trees print their structure — see the
  /// Fig. 9 reproduction).
  virtual std::string describe(const std::vector<std::string>& feature_names) const = 0;

  virtual util::Json to_json() const = 0;

  std::vector<double> predict_all(const Dataset& data) const {
    std::vector<double> out(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) out[i] = predict(data.row(i));
    return out;
  }
};

/// Name of feature `index` in describe() output: the caller's name when
/// given, "x<index>" otherwise. Built by append, not `"x" + to_string(i)`,
/// which GCC 12 at -O3 flags as an overlapping memcpy (-Wrestrict).
inline std::string feature_label(const std::vector<std::string>& feature_names,
                                 std::size_t index) {
  if (index < feature_names.size()) return feature_names[index];
  std::string label = "x";
  label.append(std::to_string(index));
  return label;
}

/// Reconstructs a regressor from its to_json() output (see registry.cpp).
std::unique_ptr<Regressor> regressor_from_json(const util::Json& j);

}  // namespace wavetune::ml

#ifndef FLEX_GRAPE_APPS_CDLP_H_
#define FLEX_GRAPE_APPS_CDLP_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "grape/pie.h"

namespace flex::grape {

/// Community detection by (synchronous) label propagation, Graphalytics
/// CDLP semantics: every round each vertex adopts the most frequent label
/// among its in- and out-neighbors (ties broken by smallest label), for a
/// fixed number of rounds.
class CdlpApp : public PieApp<uint32_t> {
 public:
  explicit CdlpApp(int rounds) : rounds_(rounds) {}

  void PEval(const Fragment& frag, PieContext<uint32_t>& ctx) override;
  void IncEval(const Fragment& frag, PieContext<uint32_t>& ctx) override;

  /// Label of every inner vertex, read by global id.
  GlobalView<uint32_t> labels() const { return {frag_, &label_}; }

 private:
  void SendLabels(const Fragment& frag, PieContext<uint32_t>& ctx);

  int rounds_;
  const Fragment* frag_ = nullptr;
  std::vector<uint32_t> label_;  // Per inner vertex.
  /// Per-inner-vertex label histogram of the current round, reused across
  /// rounds to avoid reallocation.
  std::vector<std::unordered_map<uint32_t, uint32_t>> histogram_;
};

std::vector<uint32_t> RunCdlp(
    const std::vector<std::unique_ptr<Fragment>>& fragments, int rounds);

}  // namespace flex::grape

#endif  // FLEX_GRAPE_APPS_CDLP_H_

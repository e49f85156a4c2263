#ifndef FLEX_GRAPE_APPS_PAGERANK_H_
#define FLEX_GRAPE_APPS_PAGERANK_H_

#include <memory>
#include <vector>

#include "grape/pie.h"

namespace flex::grape {

/// PageRank as a PIE application (Graphalytics semantics: damping 0.85,
/// fixed iteration count, dangling-vertex mass redistributed uniformly).
///
/// Messages are rank contributions (double). Dangling mass is aggregated
/// per fragment and broadcast as a contribution to the sentinel target
/// kInvalidVid, which every fragment folds into the next round's base.
class PageRankApp : public PieApp<double> {
 public:
  PageRankApp(int num_iterations, double damping)
      : iterations_(num_iterations), damping_(damping) {}

  void PEval(const Fragment& frag, PieContext<double>& ctx) override;
  void IncEval(const Fragment& frag, PieContext<double>& ctx) override;

  /// Final ranks of this fragment's inner vertices, read by global id.
  GlobalView<double> ranks() const { return {frag_, &rank_}; }

 private:
  void SendContributions(const Fragment& frag, PieContext<double>& ctx);

  int iterations_;
  double damping_;
  const Fragment* frag_ = nullptr;
  std::vector<double> rank_;  // Per inner vertex.
  /// Per local vertex, the accumulator doubling as the outbound combiner:
  /// inner slots collect local contributions for the next round, outer
  /// slots stage one combined message per target.
  std::vector<double> accum_;
};

/// Runs `iterations` rounds on prebuilt fragments and merges the ranks into
/// one global vector. `mode` selects the message aggregation ablation.
std::vector<double> RunPageRank(
    const std::vector<std::unique_ptr<Fragment>>& fragments, int iterations,
    double damping = 0.85, MessageMode mode = MessageMode::kAggregated);

}  // namespace flex::grape

#endif  // FLEX_GRAPE_APPS_PAGERANK_H_

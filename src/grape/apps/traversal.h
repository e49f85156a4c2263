#ifndef FLEX_GRAPE_APPS_TRAVERSAL_H_
#define FLEX_GRAPE_APPS_TRAVERSAL_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "grape/pie.h"

namespace flex::grape {

inline constexpr uint32_t kUnreachedDepth =
    std::numeric_limits<uint32_t>::max();
inline constexpr double kUnreachedDist = std::numeric_limits<double>::max();

/// Breadth-first search in true PIE style: PEval runs the complete local
/// traversal on the fragment, IncEval folds in boundary improvements and
/// re-runs the local fixpoint; only cross-fragment improvements travel,
/// one min-combined message per outer target per round. Directed
/// traversal along out edges, per Graphalytics BFS. A source that no
/// fragment owns (at or past total_vertices()) reaches nothing.
class BfsApp : public PieApp<uint32_t> {
 public:
  explicit BfsApp(vid_t source) : source_(source) {}

  void PEval(const Fragment& frag, PieContext<uint32_t>& ctx) override;
  void IncEval(const Fragment& frag, PieContext<uint32_t>& ctx) override;

  /// Depth of every local vertex, read by global id.
  GlobalView<uint32_t> depths() const { return {frag_, &depth_}; }

 private:
  void LocalFixpoint(const Fragment& frag, PieContext<uint32_t>& ctx);

  vid_t source_;
  const Fragment* frag_ = nullptr;
  std::vector<uint32_t> depth_;  // Per local vertex.
  std::vector<vid_t> worklist_;
  std::vector<vid_t> dirty_outer_;
  std::vector<uint8_t> dirty_outer_flag_;
};

std::vector<uint32_t> RunBfs(
    const std::vector<std::unique_ptr<Fragment>>& fragments, vid_t source);

/// Single-source shortest paths (PIE): local Bellman-Ford fixpoint per
/// round, min-combined boundary messages. A source that no fragment owns
/// reaches nothing.
class SsspApp : public PieApp<double> {
 public:
  explicit SsspApp(vid_t source) : source_(source) {}

  void PEval(const Fragment& frag, PieContext<double>& ctx) override;
  void IncEval(const Fragment& frag, PieContext<double>& ctx) override;

  /// Distance of every local vertex, read by global id.
  GlobalView<double> distances() const { return {frag_, &dist_}; }

 private:
  void LocalFixpoint(const Fragment& frag, PieContext<double>& ctx);

  vid_t source_;
  const Fragment* frag_ = nullptr;
  std::vector<double> dist_;  // Per local vertex.
  std::vector<vid_t> worklist_;
  std::vector<vid_t> dirty_outer_;
  std::vector<uint8_t> dirty_outer_flag_;
};

std::vector<double> RunSssp(
    const std::vector<std::unique_ptr<Fragment>>& fragments, vid_t source);

/// Weakly connected components (PIE): min-label local fixpoint along both
/// edge directions, min-combined boundary messages.
class WccApp : public PieApp<uint32_t> {
 public:
  void PEval(const Fragment& frag, PieContext<uint32_t>& ctx) override;
  void IncEval(const Fragment& frag, PieContext<uint32_t>& ctx) override;

  /// Component label (smallest global id) of every local vertex, read by
  /// global id.
  GlobalView<uint32_t> labels() const { return {frag_, &label_}; }

 private:
  void LocalFixpoint(const Fragment& frag, PieContext<uint32_t>& ctx);

  const Fragment* frag_ = nullptr;
  std::vector<uint32_t> label_;  // Per local vertex.
  std::vector<vid_t> worklist_;
  std::vector<vid_t> dirty_outer_;
  std::vector<uint8_t> dirty_outer_flag_;
};

std::vector<uint32_t> RunWcc(
    const std::vector<std::unique_ptr<Fragment>>& fragments);

}  // namespace flex::grape

#endif  // FLEX_GRAPE_APPS_TRAVERSAL_H_

#include "grape/apps/pagerank.h"

namespace flex::grape {

void PageRankApp::PEval(const Fragment& frag, PieContext<double>& ctx) {
  const double n = static_cast<double>(frag.total_vertices());
  rank_.assign(frag.total_vertices(), 0.0);
  accum_.assign(frag.total_vertices(), 0.0);
  touched_outer_.clear();
  for (vid_t v : frag.inner_vertices()) rank_[v] = 1.0 / n;
  if (iterations_ > 0) SendContributions(frag, ctx);
}

void PageRankApp::IncEval(const Fragment& frag, PieContext<double>& ctx) {
  const double n = static_cast<double>(frag.total_vertices());
  double dangling = 0.0;
  ctx.ForEachMessage([&](vid_t target, const double& contribution) {
    if (target == kInvalidVid) {
      dangling += contribution;
    } else {
      accum_[target] += contribution;
    }
  });
  const double base = (1.0 - damping_) / n + damping_ * dangling / n;
  for (vid_t v : frag.inner_vertices()) {
    rank_[v] = base + damping_ * accum_[v];
    accum_[v] = 0.0;
  }
  if (ctx.round() < iterations_) SendContributions(frag, ctx);
}

void PageRankApp::SendContributions(const Fragment& frag,
                                    PieContext<double>& ctx) {
  // GRAPE's message discipline: contributions to *inner* neighbors fold
  // straight into the local accumulator; contributions to *outer*
  // neighbors are combined per target vertex and shipped as one message
  // each — the "aggregate fragmented small messages into a continuous
  // compact buffer" strategy of §6, plus a per-target sum combiner.
  double dangling_local = 0.0;
  for (vid_t v : frag.inner_vertices()) {
    const auto nbrs = frag.OutNeighbors(v);
    if (nbrs.empty()) {
      dangling_local += rank_[v];
      continue;
    }
    const double contribution = rank_[v] / static_cast<double>(nbrs.size());
    for (vid_t u : nbrs) {
      if (frag.IsInner(u)) {
        accum_[u] += contribution;
      } else {
        if (accum_[u] == 0.0) touched_outer_.push_back(u);
        accum_[u] += contribution;
      }
    }
  }
  for (vid_t u : touched_outer_) {
    ctx.SendTo(u, accum_[u]);
    accum_[u] = 0.0;
  }
  touched_outer_.clear();
  ctx.Broadcast(dangling_local);
}

std::vector<double> RunPageRank(
    const std::vector<std::unique_ptr<Fragment>>& fragments, int iterations,
    double damping, MessageMode mode) {
  PieOptions options;
  options.mode = mode;
  return RunAndMerge<double, PageRankApp>(
      fragments,
      [&] { return std::make_unique<PageRankApp>(iterations, damping); },
      [](const PageRankApp& app, vid_t v) { return app.ranks()[v]; }, options);
}

}  // namespace flex::grape

#include "grape/apps/pagerank.h"

namespace flex::grape {

void PageRankApp::PEval(const Fragment& frag, PieContext<double>& ctx) {
  const double n = static_cast<double>(frag.total_vertices());
  frag_ = &frag;
  rank_.assign(frag.ivnum(), 1.0 / n);
  accum_.assign(frag.num_local(), 0.0);
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
  for (vid_t v = 0; v < frag.ivnum(); ++v) {
    rank_[v] = base + damping_ * accum_[v];
    accum_[v] = 0.0;
  }
  if (ctx.round() < iterations_) SendContributions(frag, ctx);
}

void PageRankApp::SendContributions(const Fragment& frag,
                                    PieContext<double>& ctx) {
  // GRAPE's message discipline: every out-edge adds into one dense
  // accumulator over local ids, with no branch on the target. Inner slots
  // are next round's local sums; outer slots combine each target's
  // contributions into one message, sent in owner order — the "aggregate
  // fragmented small messages into a continuous compact buffer" strategy
  // of §6, plus a per-target sum combiner.
  double dangling_local = 0.0;
  for (vid_t v = 0; v < frag.ivnum(); ++v) {
    const auto nbrs = frag.OutNeighbors(v);
    if (nbrs.empty()) {
      dangling_local += rank_[v];
      continue;
    }
    const double contribution = rank_[v] / static_cast<double>(nbrs.size());
    for (vid_t u : nbrs) accum_[u] += contribution;
  }
  // Outer vertices reached only by in-edges stay at zero and send nothing.
  for (vid_t u = frag.ivnum(); u < frag.num_local(); ++u) {
    if (accum_[u] == 0.0) continue;
    ctx.SendTo(u, accum_[u]);
    accum_[u] = 0.0;
  }
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

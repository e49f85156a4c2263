#include "grape/apps/traversal.h"

namespace flex::grape {

// -------------------------------------------------------------------- BFS
//
// True PIE evaluation: PEval runs the *complete local* BFS on the
// fragment; IncEval folds boundary improvements in and re-runs the local
// fixpoint. Only cross-fragment improvements travel, one combined
// (minimum) message per outer target per round.

void BfsApp::PEval(const Fragment& frag, PieContext<uint32_t>& ctx) {
  frag_ = &frag;
  depth_.assign(frag.num_local(), kUnreachedDepth);
  dirty_outer_flag_.assign(frag.num_local(), 0);
  const vid_t source = frag.Lid(source_);
  if (frag.IsInner(source)) {
    depth_[source] = 0;
    worklist_.push_back(source);
  }
  LocalFixpoint(frag, ctx);
}

void BfsApp::IncEval(const Fragment& frag, PieContext<uint32_t>& ctx) {
  ctx.ForEachMessage([&](vid_t target, uint32_t d) {
    if (d < depth_[target]) {
      depth_[target] = d;
      worklist_.push_back(target);
    }
  });
  LocalFixpoint(frag, ctx);
}

void BfsApp::LocalFixpoint(const Fragment& frag, PieContext<uint32_t>& ctx) {
  auto mark_outer = [&](vid_t u) {
    if (!dirty_outer_flag_[u]) {
      dirty_outer_flag_[u] = 1;
      dirty_outer_.push_back(u);
    }
  };
  // Direction-optimized frontier processing (GRAPE's adaptive traversal):
  // sparse rounds push along out-edges; dense rounds pull over in-edges,
  // which skips the per-edge frontier checks power-law hubs explode.
  const size_t local_edges = frag.num_inner_edges() + 1;
  std::vector<vid_t> frontier;
  frontier.swap(worklist_);
  std::vector<vid_t> next;
  while (!frontier.empty()) {
    size_t frontier_edges = 0;
    for (vid_t v : frontier) frontier_edges += frag.OutDegree(v);
    next.clear();
    // Pull is only sound level-synchronously: every frontier vertex must
    // sit at the same depth (always true for from-scratch BFS; boundary
    // corrections arrive as mixed-depth frontiers and take the push path).
    bool uniform = true;
    const uint32_t level = depth_[frontier[0]];
    for (vid_t v : frontier) uniform &= depth_[v] == level;
    if (uniform && frontier_edges * 20 > local_edges) {
      // Pull: unreached vertices probe local in-neighbors for the current
      // level, breaking at the first hit (the hub-friendly direction).
      for (vid_t v = 0; v < frag.ivnum(); ++v) {
        if (depth_[v] != kUnreachedDepth) continue;
        for (vid_t u : frag.InNeighbors(v)) {
          if (depth_[u] == level) {
            depth_[v] = level + 1;
            next.push_back(v);
            break;
          }
        }
      }
      // Outer candidates still travel by (partial) push, from the round's
      // incoming frontier (each vertex gets this treatment exactly once,
      // in the round it enters the frontier).
      for (vid_t v : frontier) {
        const uint32_t nd = depth_[v] + 1;
        for (vid_t u : frag.OutNeighbors(v)) {
          if (!frag.IsInner(u) && nd < depth_[u]) {
            depth_[u] = nd;
            mark_outer(u);
          }
        }
      }
    } else {
      for (vid_t v : frontier) {
        const uint32_t nd = depth_[v] + 1;
        for (vid_t u : frag.OutNeighbors(v)) {
          if (nd < depth_[u]) {
            depth_[u] = nd;
            if (frag.IsInner(u)) {
              next.push_back(u);
            } else {
              mark_outer(u);
            }
          }
        }
      }
    }
    frontier.swap(next);
  }
  // One combined message (the best-known depth) per improved outer vertex.
  for (vid_t u : dirty_outer_) {
    ctx.SendTo(u, depth_[u]);
    dirty_outer_flag_[u] = 0;
  }
  dirty_outer_.clear();
}

std::vector<uint32_t> RunBfs(
    const std::vector<std::unique_ptr<Fragment>>& fragments, vid_t source) {
  return RunAndMerge<uint32_t, BfsApp>(
      fragments, [&] { return std::make_unique<BfsApp>(source); },
      [](const BfsApp& app, vid_t v) { return app.depths()[v]; });
}

// ------------------------------------------------------------------- SSSP

void SsspApp::PEval(const Fragment& frag, PieContext<double>& ctx) {
  frag_ = &frag;
  dist_.assign(frag.num_local(), kUnreachedDist);
  dirty_outer_flag_.assign(frag.num_local(), 0);
  const vid_t source = frag.Lid(source_);
  if (frag.IsInner(source)) {
    dist_[source] = 0.0;
    worklist_.push_back(source);
  }
  LocalFixpoint(frag, ctx);
}

void SsspApp::IncEval(const Fragment& frag, PieContext<double>& ctx) {
  ctx.ForEachMessage([&](vid_t target, double d) {
    if (d < dist_[target]) {
      dist_[target] = d;
      worklist_.push_back(target);
    }
  });
  LocalFixpoint(frag, ctx);
}

void SsspApp::LocalFixpoint(const Fragment& frag, PieContext<double>& ctx) {
  size_t cursor = 0;
  while (cursor < worklist_.size()) {
    const vid_t v = worklist_[cursor++];
    const double base = dist_[v];
    const auto nbrs = frag.OutNeighbors(v);
    const auto weights = frag.OutWeights(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const vid_t u = nbrs[i];
      const double candidate = base + weights[i];
      if (candidate < dist_[u]) {
        dist_[u] = candidate;
        if (frag.IsInner(u)) {
          worklist_.push_back(u);
        } else if (!dirty_outer_flag_[u]) {
          dirty_outer_flag_[u] = 1;
          dirty_outer_.push_back(u);
        }
      }
    }
  }
  worklist_.clear();
  for (vid_t u : dirty_outer_) {
    ctx.SendTo(u, dist_[u]);
    dirty_outer_flag_[u] = 0;
  }
  dirty_outer_.clear();
}

std::vector<double> RunSssp(
    const std::vector<std::unique_ptr<Fragment>>& fragments, vid_t source) {
  return RunAndMerge<double, SsspApp>(
      fragments, [&] { return std::make_unique<SsspApp>(source); },
      [](const SsspApp& app, vid_t v) { return app.distances()[v]; });
}

// -------------------------------------------------------------------- WCC

void WccApp::PEval(const Fragment& frag, PieContext<uint32_t>& ctx) {
  frag_ = &frag;
  label_.assign(frag.num_local(), kInvalidVid);
  dirty_outer_flag_.assign(frag.num_local(), 0);
  for (vid_t v = 0; v < frag.ivnum(); ++v) {
    label_[v] = frag.Gid(v);
    worklist_.push_back(v);
  }
  LocalFixpoint(frag, ctx);
}

void WccApp::IncEval(const Fragment& frag, PieContext<uint32_t>& ctx) {
  ctx.ForEachMessage([&](vid_t target, uint32_t label) {
    if (label < label_[target]) {
      label_[target] = label;
      worklist_.push_back(target);
    }
  });
  LocalFixpoint(frag, ctx);
}

void WccApp::LocalFixpoint(const Fragment& frag, PieContext<uint32_t>& ctx) {
  auto relax = [&](vid_t u, uint32_t label) {
    if (label < label_[u]) {
      label_[u] = label;
      if (frag.IsInner(u)) {
        worklist_.push_back(u);
      } else if (!dirty_outer_flag_[u]) {
        dirty_outer_flag_[u] = 1;
        dirty_outer_.push_back(u);
      }
    }
  };
  size_t cursor = 0;
  while (cursor < worklist_.size()) {
    const vid_t v = worklist_[cursor++];
    const uint32_t label = label_[v];
    for (vid_t u : frag.OutNeighbors(v)) relax(u, label);
    for (vid_t u : frag.InNeighbors(v)) relax(u, label);
  }
  worklist_.clear();
  for (vid_t u : dirty_outer_) {
    ctx.SendTo(u, label_[u]);
    dirty_outer_flag_[u] = 0;
  }
  dirty_outer_.clear();
}

std::vector<uint32_t> RunWcc(
    const std::vector<std::unique_ptr<Fragment>>& fragments) {
  return RunAndMerge<uint32_t, WccApp>(
      fragments, [] { return std::make_unique<WccApp>(); },
      [](const WccApp& app, vid_t v) { return app.labels()[v]; });
}

}  // namespace flex::grape

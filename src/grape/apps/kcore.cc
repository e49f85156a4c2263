#include "grape/apps/kcore.h"

namespace flex::grape {

void KCoreApp::PEval(const Fragment& frag, PieContext<uint32_t>& ctx) {
  frag_ = &frag;
  degree_.resize(frag.ivnum());
  alive_.assign(frag.ivnum(), 1);
  for (vid_t v = 0; v < frag.ivnum(); ++v) {
    degree_[v] =
        static_cast<uint32_t>(frag.OutDegree(v) + frag.InDegree(v));
  }
  for (vid_t v = 0; v < frag.ivnum(); ++v) {
    if (degree_[v] < k_) Remove(frag, ctx, v);
  }
}

void KCoreApp::IncEval(const Fragment& frag, PieContext<uint32_t>& ctx) {
  ctx.ForEachMessage([&](vid_t target, uint32_t decrement) {
    if (alive_[target] == 0) return;
    degree_[target] -= decrement;
    if (degree_[target] < k_) Remove(frag, ctx, target);
  });
}

void KCoreApp::Remove(const Fragment& frag, PieContext<uint32_t>& ctx,
                      vid_t v) {
  alive_[v] = 0;
  for (vid_t u : frag.OutNeighbors(v)) ctx.SendTo(u, 1);
  for (vid_t u : frag.InNeighbors(v)) ctx.SendTo(u, 1);
}

std::vector<uint8_t> RunKCore(
    const std::vector<std::unique_ptr<Fragment>>& fragments, uint32_t k) {
  return RunAndMerge<uint32_t, KCoreApp>(
      fragments, [&] { return std::make_unique<KCoreApp>(k); },
      [](const KCoreApp& app, vid_t v) { return app.alive()[v]; });
}

}  // namespace flex::grape

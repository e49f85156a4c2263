#include "grape/apps/cdlp.h"

namespace flex::grape {

void CdlpApp::PEval(const Fragment& frag, PieContext<uint32_t>& ctx) {
  frag_ = &frag;
  label_.assign(frag.ivnum(), kInvalidVid);
  histogram_.assign(frag.ivnum(), {});
  for (vid_t v = 0; v < frag.ivnum(); ++v) label_[v] = frag.Gid(v);
  if (rounds_ > 0) SendLabels(frag, ctx);
}

void CdlpApp::IncEval(const Fragment& frag, PieContext<uint32_t>& ctx) {
  ctx.ForEachMessage([&](vid_t target, uint32_t label) {
    ++histogram_[target][label];
  });
  for (vid_t v = 0; v < frag.ivnum(); ++v) {
    auto& hist = histogram_[v];
    if (hist.empty()) continue;
    uint32_t best_label = label_[v];
    uint32_t best_count = 0;
    for (const auto& [label, count] : hist) {
      if (count > best_count ||
          (count == best_count && label < best_label)) {
        best_label = label;
        best_count = count;
      }
    }
    label_[v] = best_label;
    hist.clear();
  }
  if (ctx.round() < rounds_) SendLabels(frag, ctx);
}

void CdlpApp::SendLabels(const Fragment& frag, PieContext<uint32_t>& ctx) {
  for (vid_t v = 0; v < frag.ivnum(); ++v) {
    const uint32_t label = label_[v];
    for (vid_t u : frag.OutNeighbors(v)) ctx.SendTo(u, label);
    for (vid_t u : frag.InNeighbors(v)) ctx.SendTo(u, label);
  }
}

std::vector<uint32_t> RunCdlp(
    const std::vector<std::unique_ptr<Fragment>>& fragments, int rounds) {
  return RunAndMerge<uint32_t, CdlpApp>(
      fragments, [&] { return std::make_unique<CdlpApp>(rounds); },
      [](const CdlpApp& app, vid_t v) { return app.labels()[v]; });
}

}  // namespace flex::grape

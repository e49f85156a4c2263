#ifndef FLEX_GRAPE_APPS_KCORE_H_
#define FLEX_GRAPE_APPS_KCORE_H_

#include <memory>
#include <vector>

#include "grape/pie.h"

namespace flex::grape {

/// k-core decomposition membership (PIE): iterative peeling. A vertex
/// leaves when its (undirected) degree among surviving vertices drops
/// below k; each removal messages a unit decrement to its neighbors.
class KCoreApp : public PieApp<uint32_t> {
 public:
  explicit KCoreApp(uint32_t k) : k_(k) {}

  void PEval(const Fragment& frag, PieContext<uint32_t>& ctx) override;
  void IncEval(const Fragment& frag, PieContext<uint32_t>& ctx) override;

  /// Whether each inner vertex survives the peeling, read by global id.
  GlobalView<uint8_t> alive() const { return {frag_, &alive_}; }

 private:
  void Remove(const Fragment& frag, PieContext<uint32_t>& ctx, vid_t v);

  uint32_t k_;
  const Fragment* frag_ = nullptr;
  std::vector<uint32_t> degree_;  // Per inner vertex.
  std::vector<uint8_t> alive_;    // Per inner vertex.
};

/// Returns, per vertex, whether it belongs to the k-core.
std::vector<uint8_t> RunKCore(
    const std::vector<std::unique_ptr<Fragment>>& fragments, uint32_t k);

}  // namespace flex::grape

#endif  // FLEX_GRAPE_APPS_KCORE_H_

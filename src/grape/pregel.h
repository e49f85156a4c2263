#ifndef FLEX_GRAPE_PREGEL_H_
#define FLEX_GRAPE_PREGEL_H_

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "grape/pie.h"

namespace flex::grape {

template <typename VVAL, typename MSG>
class PregelAdapter;

/// Per-vertex view handed to a Pregel Compute() call.
template <typename VVAL, typename MSG>
class PregelVertex {
 public:
  /// The vertex's global id.
  vid_t id() const { return frag_->Gid(lid_); }
  int superstep() const { return superstep_; }
  VVAL& value() { return *value_; }
  const VVAL& value() const { return *value_; }

  /// Handles of the out-neighbors, for SendTo (the fragment's local ids,
  /// not global ids).
  std::span<const vid_t> out_neighbors() const {
    return frag_->OutNeighbors(lid_);
  }
  std::span<const double> out_weights() const {
    return frag_->OutWeights(lid_);
  }
  size_t out_degree() const { return frag_->OutDegree(lid_); }

  /// Sends `msg` to the out-neighbor with handle `target`.
  void SendTo(vid_t target, const MSG& msg) { ctx_->SendTo(target, msg); }
  void SendToNeighbors(const MSG& msg) {
    for (vid_t u : out_neighbors()) ctx_->SendTo(u, msg);
  }

  /// Deactivates this vertex until a message re-activates it.
  void VoteToHalt() { *halted_ = 1; }

 private:
  friend class PregelAdapter<VVAL, MSG>;

  vid_t lid_ = 0;
  int superstep_ = 0;
  VVAL* value_ = nullptr;
  uint8_t* halted_ = nullptr;
  const Fragment* frag_ = nullptr;
  PieContext<MSG>* ctx_ = nullptr;
};

/// The "think-like-a-vertex" Pregel interface [62] (§6): users implement
/// Init and Compute; the adapter lowers the program onto GRAPE's PIE
/// runtime — the paper's point that the vertex-centric model is a special
/// case of PIE.
template <typename VVAL, typename MSG>
class PregelProgram {
 public:
  virtual ~PregelProgram() = default;
  /// Initial value of the vertex with global id `v`.
  virtual VVAL Init(vid_t v, const Fragment& frag) = 0;
  virtual void Compute(PregelVertex<VVAL, MSG>& vertex,
                       std::span<const MSG> messages) = 0;
};

/// Runs a Pregel program on one fragment as a PIE app. Pregel activation
/// semantics: a vertex runs in superstep s if it received messages or has
/// not voted to halt; the computation ends when every vertex halted and no
/// messages are in flight (bounded by `max_supersteps`).
template <typename VVAL, typename MSG>
class PregelAdapter : public PieApp<MSG> {
 public:
  PregelAdapter(PregelProgram<VVAL, MSG>* program, int max_supersteps)
      : program_(program), max_supersteps_(max_supersteps) {}

  void PEval(const Fragment& frag, PieContext<MSG>& ctx) override {
    frag_ = &frag;
    values_.resize(frag.ivnum());
    halted_.assign(frag.ivnum(), 0);
    ran_this_round_.assign(frag.ivnum(), 0);
    inbox_.assign(frag.ivnum(), {});
    for (vid_t v = 0; v < frag.ivnum(); ++v) {
      values_[v] = program_->Init(frag.Gid(v), frag);
    }
    for (vid_t v = 0; v < frag.ivnum(); ++v) {
      RunVertex(frag, ctx, v, 0, {});
    }
    MaybeKeepAlive(frag, ctx, 0);
  }

  void IncEval(const Fragment& frag, PieContext<MSG>& ctx) override {
    std::vector<vid_t> with_messages;
    ctx.ForEachMessage([&](vid_t target, const MSG& msg) {
      if (target == kInvalidVid) return;  // Keep-alive marker.
      if (inbox_[target].empty()) with_messages.push_back(target);
      inbox_[target].push_back(msg);
    });
    const int superstep = ctx.round();
    // Messaged vertices run (and wake); then the still-active rest.
    for (vid_t v : with_messages) {
      halted_[v] = 0;
      ran_this_round_[v] = 1;
      RunVertex(frag, ctx, v, superstep, inbox_[v]);
      inbox_[v].clear();
    }
    for (vid_t v = 0; v < frag.ivnum(); ++v) {
      if (halted_[v] == 0 && ran_this_round_[v] == 0) {
        RunVertex(frag, ctx, v, superstep, {});
      }
    }
    for (vid_t v : with_messages) ran_this_round_[v] = 0;
    MaybeKeepAlive(frag, ctx, superstep);
  }

  /// Value of every inner vertex, read by global id.
  GlobalView<VVAL> values() const { return {frag_, &values_}; }

 private:
  void RunVertex(const Fragment& frag, PieContext<MSG>& ctx, vid_t v,
                 int superstep, std::span<const MSG> messages) {
    PregelVertex<VVAL, MSG> vertex;
    vertex.lid_ = v;
    vertex.superstep_ = superstep;
    vertex.value_ = &values_[v];
    vertex.halted_ = &halted_[v];
    vertex.frag_ = &frag;
    vertex.ctx_ = &ctx;
    program_->Compute(vertex, messages);
  }

  /// PIE terminates on message silence; an unhalted vertex must keep the
  /// supersteps coming, so the adapter emits a sentinel to itself.
  void MaybeKeepAlive(const Fragment& frag, PieContext<MSG>& ctx,
                      int superstep) {
    if (superstep + 1 >= max_supersteps_) return;
    for (vid_t v = 0; v < frag.ivnum(); ++v) {
      if (halted_[v] == 0) {
        ctx.SendToSelf(MSG{});
        return;
      }
    }
  }

  PregelProgram<VVAL, MSG>* program_;
  int max_supersteps_;
  const Fragment* frag_ = nullptr;
  // Per inner vertex.
  std::vector<VVAL> values_;
  std::vector<uint8_t> halted_;
  std::vector<uint8_t> ran_this_round_;
  std::vector<std::vector<MSG>> inbox_;
};

/// Runs `make_program()` (one program instance per fragment) and returns
/// the merged per-vertex values.
template <typename VVAL, typename MSG, typename MakeProgram>
std::vector<VVAL> RunPregel(
    const std::vector<std::unique_ptr<Fragment>>& fragments,
    MakeProgram&& make_program, int max_supersteps) {
  using Adapter = PregelAdapter<VVAL, MSG>;
  std::vector<std::unique_ptr<PregelProgram<VVAL, MSG>>> programs;
  PieOptions options;
  options.max_rounds = max_supersteps;
  return RunAndMerge<MSG, Adapter>(
      fragments,
      [&] {
        programs.push_back(make_program());
        return std::make_unique<Adapter>(programs.back().get(),
                                         max_supersteps);
      },
      [](const Adapter& app, vid_t v) { return app.values()[v]; }, options);
}

}  // namespace flex::grape

#endif  // FLEX_GRAPE_PREGEL_H_

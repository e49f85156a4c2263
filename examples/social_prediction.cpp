// Use case 3 (§8): social relation prediction — training an NCN-style
// common-neighbor link predictor with the decoupled learning stack.
//
// Deployment: Vineyard (immutable, I/O-efficient) holds the social graph;
// sampling workers extract common-neighbor features through GRIN and feed
// trainer workers over the async sample channel.
//
// Run: ./build/examples/social_prediction

#include <cstdio>
#include <thread>

#include "common/fault.h"
#include "common/queue.h"
#include "common/timer.h"
#include "datagen/generators.h"
#include "learn/sampler.h"
#include "storage/simple.h"
#include "storage/vineyard/vineyard_store.h"

using namespace flex;

int main() {
  // Optional chaos: FLEX_FAULT='site=key:value;...' arms fault injection
  // (see src/common/fault.h); unset means zero-overhead disarmed sites.
  if (flex::Status st = flex::fault::Injector::Instance().ArmFromEnv();
      !st.ok()) {
    std::fprintf(stderr, "bad FLEX_FAULT: %s\n", st.ToString().c_str());
    return 1;
  }

  // ---- Social graph in Vineyard (RMAT stands in for the in-house data).
  EdgeList graph_data = datagen::GenerateRmat(
      {.scale = 12, .edge_factor = 16.0, .a = 0.57, .b = 0.19, .c = 0.19,
       .seed = 99});
  auto store = storage::VineyardStore::Build(
                   storage::MakeSimpleGraphData(graph_data, false))
                   .value();
  auto graph = store->GetGrinHandle();
  std::printf("social graph: %u users, %zu relations (Vineyard via GRIN)\n",
              graph->NumVertices(), store->topology().num_edges());

  // ---- Training edges: observed relations (positives).
  Rng rng(5);
  std::vector<std::pair<vid_t, vid_t>> train_edges;
  for (int i = 0; i < 2000; ++i) {
    const auto& e = graph_data.edges[rng.Uniform(graph_data.num_edges())];
    train_edges.push_back({e.src, e.dst});
  }

  // ---- Decoupled pipeline: 1 sampling worker, 2 trainer workers.
  const size_t kDim = 16;
  learn::FeatureStore features(kDim, 2, 3);
  learn::NeighborSampler sampler(graph.get(), 0, {6, 3}, &features);
  BoundedQueue<learn::SampleBatch> channel(8);
  std::vector<learn::Mlp> replicas(2, learn::Mlp(3 * kDim, 24, 2, 7));

  Timer timer;
  std::thread sampling_server([&] {
    Rng srng(11);
    const size_t kBatch = 64;
    for (size_t begin = 0; begin < train_edges.size(); begin += kBatch) {
      const size_t end = std::min(train_edges.size(), begin + kBatch);
      std::vector<std::pair<vid_t, vid_t>> pos(train_edges.begin() + begin,
                                               train_edges.begin() + end);
      channel.Push(sampler.SampleLinkBatch(pos, pos.size(),
                                           graph->NumVertices(), srng));
    }
    channel.Close();
  });
  std::vector<std::thread> trainers;
  for (size_t t = 0; t < replicas.size(); ++t) {
    trainers.emplace_back([&, t] {
      while (auto batch = channel.Pop()) {
        replicas[t].TrainStep(batch->features, batch->labels, 0.2f);
      }
    });
  }
  sampling_server.join();
  for (auto& t : trainers) t.join();

  learn::Mlp model(3 * kDim, 24, 2, 7);
  model.AverageFrom({&replicas[0], &replicas[1]});
  std::printf("epoch finished in %.2fs (sampling overlapped with training)\n",
              timer.ElapsedSeconds());

  // ---- Evaluate: held-out positives + random negatives.
  Rng erng(21);
  std::vector<std::pair<vid_t, vid_t>> probe;
  for (int i = 0; i < 128; ++i) {
    const auto& e = graph_data.edges[erng.Uniform(graph_data.num_edges())];
    probe.push_back({e.src, e.dst});
  }
  auto batch = sampler.SampleLinkBatch(probe, probe.size(),
                                       graph->NumVertices(), erng);
  std::printf("link-prediction accuracy on held-out pairs: %.1f%%\n",
              model.Accuracy(batch.features, batch.labels) * 100.0);
  std::printf("(the NCN signal: pairs sharing common neighbors are far "
              "likelier to connect)\n");
  return 0;
}

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/check.h"
#include "des/event_loop.h"
#include "llm/client.h"
#include "llm/cluster.h"
#include "llm/cost_model.h"
#include "llm/cost_model_client.h"
#include "llm/specs.h"
#include "runtime/sim_clock.h"

namespace aimetro::llm {
namespace {

TEST(Specs, ModelFootprints) {
  const auto m8 = ModelSpec::llama3_8b();
  const auto m70 = ModelSpec::llama3_70b();
  const auto mix = ModelSpec::mixtral_8x7b();
  // The paper notes the 70B memory demand is 8.75x the 8B's (§4.2).
  EXPECT_NEAR(m70.weight_bytes() / m8.weight_bytes(), 8.75, 0.01);
  // Mixtral uses ~80% of a 70B's memory with lighter compute (§4.3).
  EXPECT_NEAR(mix.weight_bytes() / m70.weight_bytes(), 0.67, 0.1);
  EXPECT_LT(mix.active_params_b, mix.total_params_b);
  EXPECT_FALSE(m8.is_moe());
  EXPECT_TRUE(mix.is_moe());
}

TEST(CostModel, DecodeIsBatchFriendly) {
  const CostModel cm(ModelSpec::llama3_8b(), GpuSpec::l4(), 1);
  // Memory-bound decode: doubling the batch must cost far less than 2x.
  const SimTime t1 = cm.iteration_time(1, 0, 700);
  const SimTime t2 = cm.iteration_time(2, 0, 1400);
  const SimTime t32 = cm.iteration_time(32, 0, 32 * 700);
  EXPECT_LT(static_cast<double>(t2), 1.3 * static_cast<double>(t1));
  EXPECT_LT(static_cast<double>(t32), 4.0 * static_cast<double>(t1));
  // Throughput (tokens/us) strictly improves with batch.
  EXPECT_GT(32.0 / static_cast<double>(t32), 1.0 / static_cast<double>(t1));
}

TEST(CostModel, PrefillIsComputeBound) {
  const CostModel cm(ModelSpec::llama3_8b(), GpuSpec::l4(), 1);
  const SimTime t512 = cm.iteration_time(0, 512, 0);
  const SimTime t4096 = cm.iteration_time(0, 4096, 0);
  EXPECT_NEAR(static_cast<double>(t4096) / static_cast<double>(t512), 8.0,
              2.0);
}

TEST(CostModel, TensorParallelismSubLinear) {
  const CostModel tp1(ModelSpec::llama3_70b(), GpuSpec::a100_80gb(), 4);
  const CostModel tp8(ModelSpec::llama3_70b(), GpuSpec::a100_80gb(), 8);
  const SimTime t4 = tp1.iteration_time(1, 0, 700);
  const SimTime t8 = tp8.iteration_time(1, 0, 700);
  EXPECT_LT(t8, t4);                                       // faster
  EXPECT_GT(static_cast<double>(t8), 0.5 * static_cast<double>(t4));  // < 2x
}

TEST(CostModel, MoeReadsFewerWeightsAtSmallBatch) {
  const CostModel mix(ModelSpec::mixtral_8x7b(), GpuSpec::a100_80gb(), 2);
  const double w1 = mix.weights_read_bytes(1);
  const double w64 = mix.weights_read_bytes(64);
  const double all = ModelSpec::mixtral_8x7b().weight_bytes();
  EXPECT_LT(w1, 0.6 * all);
  EXPECT_GT(w64, 0.95 * all);
  // Dense model always reads everything.
  const CostModel dense(ModelSpec::llama3_8b(), GpuSpec::l4(), 1);
  EXPECT_DOUBLE_EQ(dense.weights_read_bytes(1),
                   ModelSpec::llama3_8b().weight_bytes());
}

TEST(CostModel, KvCapacityReflectsFootprint) {
  const CostModel l4_8b(ModelSpec::llama3_8b(), GpuSpec::l4(), 1);
  EXPECT_GT(l4_8b.kv_capacity_tokens(), 10'000);
  EXPECT_LT(l4_8b.kv_capacity_tokens(), 200'000);
  // 70B does not fit on one L4.
  EXPECT_THROW(CostModel(ModelSpec::llama3_70b(), GpuSpec::l4(), 1),
               CheckError);
  const CostModel a100_70b(ModelSpec::llama3_70b(), GpuSpec::a100_80gb(), 4);
  EXPECT_GT(a100_70b.kv_capacity_tokens(), 100'000);
}

// ---- Cluster / replica behaviour ----

struct ClusterHarness {
  des::EventLoop loop;
  std::unique_ptr<Cluster> cluster;

  explicit ClusterHarness(std::int32_t dp = 1, ClusterConfig cfg = {}) {
    cluster = std::make_unique<Cluster>(&loop, ModelSpec::llama3_8b(),
                                        GpuSpec::l4(),
                                        ParallelismConfig{1, dp},
                                        CostModelConfig{}, cfg);
  }

  Request make(std::int64_t in, std::int64_t out, std::int64_t priority = 0) {
    Request r;
    r.prompt_tokens = in;
    r.output_tokens = out;
    r.priority = priority;
    return r;
  }
};

TEST(Cluster, SingleRequestLatencyDecomposes) {
  ClusterHarness h;
  SimTime finish = 0;
  Request r = h.make(640, 22);
  r.on_complete = [&](const RequestOutcome& o) { finish = o.finish_time; };
  h.cluster->submit(std::move(r));
  h.loop.run();
  ASSERT_GT(finish, 0);
  const CostModel& cm = h.cluster->cost_model();
  // Expected: one prefill chunk + 22 decode iterations at batch 1.
  const SimTime expected = cm.iteration_time(0, 640, 0) +
                           22 * cm.iteration_time(1, 0, 650);
  EXPECT_NEAR(static_cast<double>(finish), static_cast<double>(expected),
              0.15 * static_cast<double>(expected));
  EXPECT_EQ(h.cluster->completed(), 1u);
  EXPECT_EQ(h.cluster->outstanding(), 0u);
}

TEST(Cluster, BatchingBeatsSerialExecution) {
  // 16 identical requests together must finish much sooner than 16x one.
  SimTime serial_one = 0;
  {
    ClusterHarness h;
    Request r = h.make(640, 22);
    r.on_complete = [&](const RequestOutcome& o) { serial_one = o.finish_time; };
    h.cluster->submit(std::move(r));
    h.loop.run();
  }
  ClusterHarness h;
  SimTime last = 0;
  for (int i = 0; i < 16; ++i) {
    Request r = h.make(640, 22);
    r.on_complete = [&](const RequestOutcome& o) {
      last = std::max(last, o.finish_time);
    };
    h.cluster->submit(std::move(r));
  }
  h.loop.run();
  EXPECT_LT(static_cast<double>(last),
            0.5 * 16.0 * static_cast<double>(serial_one));
  EXPECT_GT(h.cluster->average_parallelism(last), 4.0);
}

TEST(Cluster, ChainedSubmissionFromCallback) {
  ClusterHarness h;
  std::vector<SimTime> finishes;
  std::function<void(int)> submit_next = [&](int remaining) {
    Request r = h.make(100, 5);
    r.on_complete = [&, remaining](const RequestOutcome& o) {
      finishes.push_back(o.finish_time);
      if (remaining > 1) submit_next(remaining - 1);
    };
    h.cluster->submit(std::move(r));
  };
  submit_next(4);
  h.loop.run();
  ASSERT_EQ(finishes.size(), 4u);
  for (std::size_t i = 1; i < finishes.size(); ++i) {
    EXPECT_GT(finishes[i], finishes[i - 1]);  // strictly serialized
  }
  EXPECT_EQ(h.cluster->completed(), 4u);
}

TEST(Cluster, PriorityOrdersQueueUnderSaturation) {
  // One replica, many requests: with priority scheduling, low-step
  // requests jump the queue even when submitted last.
  ClusterConfig cfg;
  cfg.priority_scheduling = true;
  cfg.replica.max_running_requests = 1;  // force queueing
  ClusterHarness h(1, cfg);
  std::vector<std::int64_t> completion_order;
  for (int i = 0; i < 6; ++i) {
    Request r = h.make(200, 10, /*priority=*/100 - i);  // decreasing priority value
    r.on_complete = [&, i](const RequestOutcome&) {
      completion_order.push_back(100 - i);
    };
    h.cluster->submit(std::move(r));
  }
  h.loop.run();
  ASSERT_EQ(completion_order.size(), 6u);
  // First admitted is the first submitted (queue was empty); afterwards the
  // smallest priorities go first: 95, 96, ..., then the stragglers.
  for (std::size_t i = 2; i < completion_order.size(); ++i) {
    EXPECT_LT(completion_order[i - 1], completion_order[i]);
  }
}

TEST(Cluster, FifoWhenPriorityDisabled) {
  ClusterConfig cfg;
  cfg.priority_scheduling = false;
  cfg.replica.max_running_requests = 1;
  ClusterHarness h(1, cfg);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    Request r = h.make(200, 10, /*priority=*/1000 - i);
    r.on_complete = [&, i](const RequestOutcome&) { order.push_back(i); };
    h.cluster->submit(std::move(r));
  }
  h.loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Cluster, DataParallelRoutingUsesAllReplicas) {
  ClusterHarness h(4);
  std::vector<std::int32_t> replicas;
  for (int i = 0; i < 8; ++i) {
    Request r = h.make(640, 8);
    r.on_complete = [&](const RequestOutcome& o) {
      replicas.push_back(o.replica);
    };
    h.cluster->submit(std::move(r));
  }
  h.loop.run();
  std::set<std::int32_t> distinct(replicas.begin(), replicas.end());
  EXPECT_EQ(distinct.size(), 4u);
}

TEST(Cluster, MoreReplicasNeverSlower) {
  SimTime t1 = 0, t4 = 0;
  for (auto* out : {&t1, &t4}) {
    ClusterHarness h(out == &t1 ? 1 : 4);
    SimTime last = 0;
    for (int i = 0; i < 32; ++i) {
      Request r = h.make(640, 22);
      r.on_complete = [&last](const RequestOutcome& o) {
        last = std::max(last, o.finish_time);
      };
      h.cluster->submit(std::move(r));
    }
    h.loop.run();
    *out = last;
  }
  EXPECT_LT(t4, t1);
}

TEST(Cluster, KvCapacityLimitsAdmission) {
  ClusterConfig cfg;
  ClusterHarness h(1, cfg);
  const std::int64_t cap = h.cluster->cost_model().kv_capacity_tokens();
  // Requests sized at ~40% capacity: at most two run concurrently.
  const std::int64_t big = cap * 2 / 5;
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    Request r = h.make(big - 50, 50);
    r.on_complete = [&](const RequestOutcome&) { ++completed; };
    h.cluster->submit(std::move(r));
  }
  // After the admission events fire, only two fit in KV.
  h.loop.run_until(h.cluster->cost_model().iteration_time(0, big, 0));
  EXPECT_LE(h.cluster->outstanding(), 4u);
  h.loop.run();
  EXPECT_EQ(completed, 4);
}

TEST(Cluster, PrefixCacheAcceleratesRepeatedPrompts) {
  SimTime cold = 0, warm = 0;
  for (auto* out : {&cold, &warm}) {
    ClusterConfig cfg;
    cfg.replica.prefix_cache = (out == &warm);
    ClusterHarness h(1, cfg);
    SimTime last = 0;
    std::function<void(int)> chain = [&](int remaining) {
      Request r = h.make(1200, 4);
      r.prompt_hash = 0xABCDEF;  // identical prefix every time
      r.on_complete = [&, remaining](const RequestOutcome& o) {
        last = o.finish_time;
        if (remaining > 1) chain(remaining - 1);
      };
      h.cluster->submit(std::move(r));
    };
    chain(10);
    h.loop.run();
    *out = last;
    if (out == &warm) {
      EXPECT_GE(h.cluster->total_prefix_cache_hits(), 8u);
    }
  }
  EXPECT_LT(static_cast<double>(warm), 0.85 * static_cast<double>(cold));
}

TEST(Cluster, UtilizationAndTokenAccounting) {
  ClusterHarness h(2);
  for (int i = 0; i < 6; ++i) {
    h.cluster->submit(h.make(300, 12));
  }
  h.loop.run();
  const SimTime end = h.cluster->last_completion_time();
  EXPECT_EQ(h.cluster->total_decode_tokens(), 6 * 12);
  EXPECT_EQ(h.cluster->total_prefill_tokens(), 6 * 300);
  EXPECT_GT(h.cluster->average_utilization(end), 0.0);
  EXPECT_LE(h.cluster->average_utilization(end), 1.0);
}

TEST(FakeClient, DeterministicAndThreadSafe) {
  FakeLlmClient client(7);
  CompletionRequest req;
  req.prompt = "hello world";
  const auto a = client.complete(req);
  const auto b = client.complete(req);
  EXPECT_EQ(a.text, b.text);
  req.prompt = "different";
  EXPECT_NE(client.complete(req).text, a.text);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&client] {
      CompletionRequest r;
      r.prompt = "concurrent";
      for (int i = 0; i < 100; ++i) client.complete(r);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(client.calls(), 403u);  // 3 sequential + 4 threads x 100
}

// ---- DecodeTimeline: event-driven per-iteration decode pricing ----

TEST(DecodeTimeline, SoloRequestDecodesAtBatchOne) {
  const CostModel cm(ModelSpec::llama3_8b(), GpuSpec::l4(), 1);
  DecodeTimeline tl(&cm);
  const SimTime dt = cm.iteration_time(1, 0, 54);
  const std::uint64_t id = tl.admit(/*join=*/1000, /*output_tokens=*/4,
                                    /*kv_footprint=*/54);
  EXPECT_EQ(tl.predict_finish(id), 1000 + 4 * dt);
  tl.advance(1000 + 4 * dt - 1);
  EXPECT_FALSE(tl.finished(id));  // the last iteration has not completed
  tl.advance(1000 + 4 * dt);
  ASSERT_TRUE(tl.finished(id));
  EXPECT_EQ(tl.take_finish(id), 1000 + 4 * dt);
  EXPECT_EQ(tl.peak_batch(), 1);
  EXPECT_EQ(tl.active(), 0);
}

TEST(DecodeTimeline, LateArrivalRepricesSharedIterations) {
  // THE behaviour the admission-time model got wrong: a request admitted
  // alone must slow down for exactly the iterations it later shares.
  const CostModel cm(ModelSpec::llama3_8b(), GpuSpec::l4(), 1);
  DecodeTimeline tl(&cm);
  const std::int64_t kv_a = 500, kv_b = 300;
  const SimTime dt1 = cm.iteration_time(1, 0, kv_a);
  const SimTime dt2 = cm.iteration_time(2, 0, kv_a + kv_b);
  const SimTime dt1_after = cm.iteration_time(1, 0, kv_a);
  const std::uint64_t a = tl.admit(0, 10, kv_a);
  // B joins exactly at A's second iteration boundary.
  const std::uint64_t b = tl.admit(2 * dt1, 5, kv_b);
  // A decodes 2 tokens alone, shares 5 iterations with B, then finishes
  // its last 3 alone again; B's 5 iterations are all shared.
  EXPECT_EQ(tl.predict_finish(b), 2 * dt1 + 5 * dt2);
  EXPECT_EQ(tl.predict_finish(a), 2 * dt1 + 5 * dt2 + 3 * dt1_after);
  tl.advance(2 * dt1 + 5 * dt2 + 3 * dt1_after);
  EXPECT_EQ(tl.take_finish(b), 2 * dt1 + 5 * dt2);
  EXPECT_EQ(tl.take_finish(a), 2 * dt1 + 5 * dt2 + 3 * dt1_after);
  EXPECT_EQ(tl.peak_batch(), 2);
}

TEST(DecodeTimeline, MidIterationJoinWaitsForTheNextBoundary) {
  // Admission happens at iteration boundaries, as in the DES replica: a
  // request joining mid-iteration starts with the next one.
  const CostModel cm(ModelSpec::llama3_8b(), GpuSpec::l4(), 1);
  DecodeTimeline tl(&cm);
  const std::int64_t kv_a = 400, kv_b = 200;
  const SimTime dt1 = cm.iteration_time(1, 0, kv_a);
  const SimTime dt2 = cm.iteration_time(2, 0, kv_a + kv_b);
  const std::uint64_t a = tl.admit(0, 6, kv_a);
  const std::uint64_t b = tl.admit(2 * dt1 + 1, 2, kv_b);  // just past it
  EXPECT_EQ(tl.predict_finish(b), 3 * dt1 + 2 * dt2);
  EXPECT_EQ(tl.predict_finish(a), 3 * dt1 + 2 * dt2 + dt1);
  tl.advance(kSimTimeMax / 2);
  EXPECT_EQ(tl.take_finish(b), 3 * dt1 + 2 * dt2);
  EXPECT_EQ(tl.take_finish(a), 3 * dt1 + 2 * dt2 + dt1);
}

TEST(DecodeTimeline, IdleGapRestartsIterationsAtTheNextJoin) {
  const CostModel cm(ModelSpec::llama3_8b(), GpuSpec::l4(), 1);
  DecodeTimeline tl(&cm);
  const SimTime dt = cm.iteration_time(1, 0, 100);
  const std::uint64_t a = tl.admit(0, 2, 100);
  tl.advance(5 * dt);
  EXPECT_EQ(tl.take_finish(a), 2 * dt);
  // A later request must not inherit stale iteration boundaries from the
  // idle gap: its decode starts at its own join time.
  const std::uint64_t b = tl.admit(10 * dt, 3, 100);
  EXPECT_EQ(tl.predict_finish(b), 10 * dt + 3 * dt);
  tl.advance(20 * dt);
  EXPECT_EQ(tl.take_finish(b), 13 * dt);
}

TEST(DecodeTimeline, PredictedFinishesCoverEveryUnreapedRequest) {
  const CostModel cm(ModelSpec::llama3_8b(), GpuSpec::l4(), 1);
  DecodeTimeline tl(&cm);
  const SimTime dt = cm.iteration_time(1, 0, 50);
  const std::uint64_t a = tl.admit(0, 1, 50);
  tl.advance(dt);  // a finished but not reaped
  ASSERT_TRUE(tl.finished(a));
  // Three overlapping actives: the single-pass replay must produce the
  // same finish for each as the per-request prediction.
  const std::uint64_t b = tl.admit(2 * dt, 4, 50);
  const std::uint64_t c = tl.admit(2 * dt, 7, 80);
  const std::uint64_t d = tl.admit(3 * dt, 2, 60);
  auto finishes = tl.predicted_finishes();
  ASSERT_EQ(finishes.size(), 4u);  // one exact + three predicted
  std::sort(finishes.begin(), finishes.end());
  std::vector<SimTime> expected = {dt, tl.predict_finish(b),
                                   tl.predict_finish(c),
                                   tl.predict_finish(d)};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(finishes, expected);
}

// ---- CostModelLlmClient: cost-model latencies on a virtual clock ----

TEST(CostModelClient, VirtualLatencyMatchesIterationTime) {
  const CostModel cm(ModelSpec::llama3_8b(), GpuSpec::l4(), 1);
  const runtime::SimClock clock(1e6);  // compress sleeps away
  CostModelClientConfig cfg;
  cfg.max_prefill_tokens_per_iter = 8192;
  const CostModelLlmClient client(cm, &clock, cfg);

  // Single prefill chunk + one decode iteration per output token at the
  // given batch: exactly the DES cost model's pricing.
  const SimTime expected_small =
      cm.iteration_time(0, 1000, 0) + 10 * cm.iteration_time(3, 0, 2100);
  EXPECT_EQ(client.virtual_latency(1000, 10, 3, 2100), expected_small);

  // Long prompts prefill in max_prefill_tokens_per_iter chunks.
  const SimTime expected_chunked = cm.iteration_time(0, 8192, 0) +
                                   cm.iteration_time(0, 8192, 0) +
                                   cm.iteration_time(0, 3616, 0) +
                                   22 * cm.iteration_time(1, 0, 20022);
  EXPECT_EQ(client.virtual_latency(20000, 22, 1, 20022), expected_chunked);

  // No prefill: decode only.
  EXPECT_EQ(client.virtual_latency(0, 5, 2, 500),
            5 * cm.iteration_time(2, 0, 500));
}

TEST(CostModelClient, CompleteAccountsVirtualTimeAndStaysDeterministic) {
  const CostModel cm(ModelSpec::llama3_8b(), GpuSpec::l4(), 1);
  // Low enough compression that calls take real wall microseconds, so the
  // concurrent section below genuinely overlaps in flight.
  const runtime::SimClock clock(200.0);
  CostModelClientConfig cfg;
  cfg.data_parallel = 2;
  cfg.seed = 7;
  CostModelLlmClient client(cm, &clock, cfg);

  CompletionRequest req;
  req.prompt = "hello world";
  req.prompt_tokens = 640;
  req.max_tokens = 20;
  const auto a = client.complete(req);
  const auto b = client.complete(req);
  // Response text is the same deterministic digest FakeLlmClient returns,
  // so swapping clients never changes agent behaviour.
  EXPECT_EQ(a.text, FakeLlmClient(7).complete(req).text);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.prompt_tokens, 640);
  EXPECT_EQ(client.calls(), 2u);

  // Sequential calls accumulate at least their unbatched service time on
  // the virtual axis.
  const SimTime solo = client.virtual_latency(640, 20, 1, 660);
  EXPECT_GE(client.last_finish(), 2 * solo);

  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&client] {
      CompletionRequest r;
      r.prompt = "concurrent";
      r.prompt_tokens = 100;
      r.max_tokens = 5;
      for (int i = 0; i < 20; ++i) client.complete(r);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(client.calls(), 162u);  // 2 sequential + 8 threads x 20
  // 8 concurrent callers over 2 replicas: batches beyond 1 must occur.
  EXPECT_GT(client.peak_batch(), 1);
  EXPECT_LE(client.peak_batch(), 4);
}

TEST(CostModelClient, CapacityQueueingSerializesOverflow) {
  const CostModel cm(ModelSpec::llama3_8b(), GpuSpec::l4(), 1);
  const runtime::SimClock clock(2000.0);
  CostModelClientConfig cfg;
  cfg.data_parallel = 1;
  cfg.max_running_requests = 1;  // every concurrent call must queue
  CostModelLlmClient client(cm, &clock, cfg);

  const SimTime solo = client.virtual_latency(50, 4, 1, 54);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&client] {
      CompletionRequest r;
      r.prompt = "queued";
      r.prompt_tokens = 50;
      r.max_tokens = 4;
      for (int i = 0; i < 5; ++i) client.complete(r);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(client.calls(), 20u);
  EXPECT_EQ(client.peak_batch(), 1);  // the cap bounds the priced batch
  // One slot serializes all 20 calls on the virtual axis — overflow
  // arrivals each wait for their own slot, not just the earliest finish.
  EXPECT_GE(client.last_finish(), 20 * solo);
}

}  // namespace
}  // namespace aimetro::llm

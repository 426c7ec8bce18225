#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
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
                                        ParallelismConfig{1, dp}, cfg);
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

/// `submit` must fail at once, naming the request's KV footprint and the
/// replica's capacity: such a request could never be admitted, and the
/// queue behind it would stall silently.
void expect_kv_overflow(const std::function<void()>& submit,
                        std::int64_t footprint, std::int64_t capacity) {
  try {
    submit();
    ADD_FAILURE() << "a request larger than the KV cache was queued";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("needs " + std::to_string(footprint)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(std::to_string(capacity)), std::string::npos)
        << what;
  }
}

TEST(Cluster, RequestLargerThanTheKvCacheFailsAtSubmit) {
  ClusterHarness h;
  const std::int64_t cap = h.cluster->cost_model().kv_capacity_tokens();
  expect_kv_overflow([&] { h.cluster->submit(h.make(cap + 1, 1)); },
                     cap + 2, cap);
  // The cluster is untouched: requests that fit still complete.
  int completed = 0;
  for (int i = 0; i < 2; ++i) {
    Request r = h.make(100, 5);
    r.on_complete = [&](const RequestOutcome&) { ++completed; };
    h.cluster->submit(std::move(r));
  }
  h.loop.run();
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(h.cluster->outstanding(), 0u);
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

// ---- VirtualReplica: the DES batching rule on a virtual cursor ----

/// One call: when it arrives and what it asks for.
struct Arrival {
  SimTime at;
  std::int64_t prompt_tokens;
  std::int64_t output_tokens;
  std::int64_t priority = 0;
};

ReplicaConfig replica_config(std::int32_t max_running = 256) {
  ReplicaConfig cfg;
  cfg.max_running_requests = max_running;
  return cfg;
}

/// Finish times of `arrivals` on a one-replica DES Cluster (Llama-3-8B on
/// one L4), each submitted by an event at its arrival time.
std::vector<SimTime> des_finishes(const std::vector<Arrival>& arrivals,
                                  ReplicaConfig cfg) {
  des::EventLoop loop;
  ClusterConfig cluster_cfg;
  cluster_cfg.replica = cfg;
  Cluster cluster(&loop, ModelSpec::llama3_8b(), GpuSpec::l4(),
                  ParallelismConfig{1, 1}, cluster_cfg);
  std::vector<SimTime> finish(arrivals.size(), -1);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    loop.schedule_at(arrivals[i].at, [&, i] {
      Request r;
      r.prompt_tokens = arrivals[i].prompt_tokens;
      r.output_tokens = arrivals[i].output_tokens;
      r.priority = arrivals[i].priority;
      r.on_complete = [&finish, i](const RequestOutcome& o) {
        finish[i] = o.finish_time;
      };
      cluster.submit(std::move(r));
    });
  }
  loop.run();
  return finish;
}

/// Finish times of the same arrivals (sorted by time) on the engine's
/// replica, driven as CostModelLlmClient drives it. Every prediction made
/// after an arrival for a call that finishes no later than the next
/// arrival — so no further arrival can touch it — must be its actual
/// finish.
std::vector<SimTime> virtual_finishes(const std::vector<Arrival>& arrivals,
                                      ReplicaConfig cfg) {
  const CostModel cm(ModelSpec::llama3_8b(), GpuSpec::l4(), 1);
  VirtualReplica replica(&cm, cfg);
  std::vector<std::uint64_t> ids;
  std::vector<SimTime> predicted(arrivals.size(), -1);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    ids.push_back(
        replica.submit(a.at, a.prompt_tokens, a.output_tokens, a.priority));
    const SimTime next =
        i + 1 < arrivals.size() ? arrivals[i + 1].at : kSimTimeMax;
    for (std::size_t j = 0; j <= i; ++j) {
      const SimTime p = replica.predict_finish(ids[j]);
      if (p <= next && predicted[j] < 0) predicted[j] = p;
    }
  }
  replica.advance(kSimTimeMax);
  std::vector<SimTime> finish;
  for (std::size_t j = 0; j < ids.size(); ++j) {
    const std::optional<SimTime> f = replica.take_finish(ids[j]);
    EXPECT_TRUE(f.has_value()) << "call " << j;
    finish.push_back(f.value_or(-1));
    EXPECT_EQ(predicted[j], finish.back()) << "prediction for call " << j;
  }
  return finish;
}

/// The engine's replica and the DES replica finish every call at the same
/// virtual time.
std::vector<SimTime> expect_same_finishes(const std::vector<Arrival>& arrivals,
                                          ReplicaConfig cfg = {}) {
  const std::vector<SimTime> des = des_finishes(arrivals, cfg);
  const std::vector<SimTime> engine = virtual_finishes(arrivals, cfg);
  EXPECT_EQ(engine, des);
  return des;
}

TEST(VirtualReplica, SoloCallPricesPrefillChunksThenDecodes) {
  const CostModel cm(ModelSpec::llama3_8b(), GpuSpec::l4(), 1);
  // Prefill runs in max_prefill_tokens_per_iter chunks; the decode joins
  // the batch in the next iteration, one token per iteration, with its
  // context growing by one token each time.
  auto solo = [&](std::int64_t prompt, std::int64_t output) {
    SimTime t = 0;
    for (std::int64_t left = prompt; left > 0; left -= 8192) {
      t += cm.iteration_time(0, std::min<std::int64_t>(left, 8192), 0);
    }
    for (std::int64_t g = 0; g < output; ++g) {
      t += cm.iteration_time(1, 0, prompt + g);
    }
    return t;
  };
  const SimTime start = 1000;
  EXPECT_EQ(expect_same_finishes({{start, 640, 22}})[0],
            start + solo(640, 22));
  EXPECT_EQ(expect_same_finishes({{start, 20000, 22}})[0],
            start + solo(20000, 22));
}

TEST(VirtualReplica, StaggeredArrivalsMatchTheDesReplica) {
  const CostModel cm(ModelSpec::llama3_8b(), GpuSpec::l4(), 1);
  const SimTime prefill = cm.iteration_time(0, 640, 0);
  // The second call lands mid-way through the first's prefill, the third
  // mid-way through a shared decode iteration; each joins at the next
  // boundary.
  const std::vector<Arrival> arrivals = {
      {0, 640, 40}, {prefill / 2, 300, 10}, {prefill * 3 + 7, 1200, 5}};
  const std::vector<SimTime> finish = expect_same_finishes(arrivals);
  // A call admitted alone slows down for the iterations it later shares:
  // the first call finishes after its solo finish.
  const std::vector<SimTime> alone = des_finishes({arrivals[0]}, {});
  EXPECT_GT(finish[0], alone[0]);
}

TEST(VirtualReplica, LongPromptSharesThePrefillBudget) {
  // A 20,000-token prompt takes the whole 8,192-token budget for two
  // iterations; a short call arriving meanwhile prefills in the leftover
  // of the third.
  expect_same_finishes({{0, 20000, 8}, {5000, 300, 6}, {9000, 100, 3}});
}

TEST(VirtualReplica, RunningCapAdmitsByPriority) {
  // Two slots, freed one at a time: the calls queued behind them are
  // admitted smallest priority first, not in arrival order.
  const std::vector<Arrival> arrivals = {
      {0, 200, 10, 5}, {0, 200, 20, 3}, {1000, 200, 10, 9},
      {1000, 200, 10, 1}, {2000, 200, 10, 2}};
  const std::vector<SimTime> finish =
      expect_same_finishes(arrivals, replica_config(2));
  EXPECT_LT(finish[3], finish[4]);  // priority 1 before 2
  EXPECT_LT(finish[4], finish[2]);  // priority 2 before 9
}

TEST(VirtualReplica, KvHeadOfLineBlocksTheQueue) {
  // Three 15,000-token prompts fill an L4's KV cache; the fourth waits
  // for one of them to finish, and the small call behind it waits too,
  // although it would fit.
  const CostModel cm(ModelSpec::llama3_8b(), GpuSpec::l4(), 1);
  ASSERT_LT(cm.kv_capacity_tokens(), 4 * 15010);
  ASSERT_GE(cm.kv_capacity_tokens(), 3 * 15010 + 105);
  const std::vector<Arrival> arrivals = {{0, 15000, 10},
                                         {0, 15000, 20},
                                         {0, 15000, 30},
                                         {100, 15000, 10},
                                         {200, 100, 5}};
  const std::vector<SimTime> finish = expect_same_finishes(arrivals);
  // Neither is admitted before the first big call leaves, and sharing
  // iterations never makes a call faster than it runs alone.
  EXPECT_GE(finish[3], finish[0] + des_finishes({{0, 15000, 10}}, {})[0]);
  EXPECT_GE(finish[4], finish[0] + des_finishes({{0, 100, 5}}, {})[0]);
}

TEST(VirtualReplica, IdleGapRestartsAtTheNextArrival) {
  const std::vector<SimTime> first = des_finishes({{0, 100, 3}}, {});
  const SimTime late = first[0] + 10'000'000;
  const std::vector<SimTime> finish =
      expect_same_finishes({{0, 100, 3}, {late, 100, 3}});
  // The replica does not keep stale iteration boundaries across the gap.
  EXPECT_EQ(finish[1], late + first[0]);
}

// ---- CostModelLlmClient: the batching rule on a virtual clock ----

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

  // Sequential calls accumulate at least the DES replica's solo latency
  // each on the virtual axis.
  const SimTime solo = des_finishes({{0, 640, 20}}, {})[0];
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

  const SimTime solo = des_finishes({{0, 50, 4}}, {})[0];
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
  EXPECT_EQ(client.peak_batch(), 1);  // the cap bounds the running batch
  // One slot serializes all 20 calls on the virtual axis.
  EXPECT_GE(client.last_finish(), 20 * solo);
}

TEST(CostModelClient, QueuedCallsAreAdmittedByPriority) {
  // One slot, held by a long call; a priority-9 call queues behind it,
  // then a priority-1 call. The slot goes to priority 1 first, so it
  // returns first: about 70 ms of wall time apart at this scale.
  const CostModel cm(ModelSpec::llama3_8b(), GpuSpec::l4(), 1);
  const runtime::SimClock clock(100.0);
  CostModelClientConfig cfg;
  cfg.max_running_requests = 1;
  CostModelLlmClient client(cm, &clock, cfg);
  common::Mutex mu{"test.order"};
  std::vector<std::int64_t> order;
  auto call = [&](std::int64_t priority, std::int32_t output_tokens) {
    CompletionRequest r;
    r.prompt = "queued";
    r.prompt_tokens = 100;
    r.max_tokens = output_tokens;
    r.priority = priority;
    client.complete(r);
    common::MutexLock lock(mu);
    order.push_back(priority);
  };
  std::thread holder(call, 0, 400);  // ~27 virtual s, ~0.27 s of wall
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread late(call, 9, 100);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread urgent(call, 1, 100);
  holder.join();
  late.join();
  urgent.join();
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 1, 9}));
}

TEST(CostModelClient, CallLargerThanTheKvCacheFails) {
  const CostModel cm(ModelSpec::llama3_8b(), GpuSpec::l4(), 1);
  const runtime::SimClock clock(1e6);
  CostModelLlmClient client(cm, &clock);
  const std::int64_t cap = cm.kv_capacity_tokens();
  CompletionRequest req;
  req.prompt = "too long";
  req.prompt_tokens = static_cast<std::int32_t>(cap + 1);
  req.max_tokens = 1;
  expect_kv_overflow([&] { client.complete(req); }, cap + 2, cap);
  EXPECT_EQ(client.calls(), 0u);
}

}  // namespace
}  // namespace aimetro::llm

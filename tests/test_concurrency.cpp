// Concurrency stress tests: exact-count checks over the mutex-protected obs
// primitives, the work-stealing pool, and the partitioned IRSA engine path.
// These are the workloads the TSan CI job (-DDQN_SANITIZE=thread) drives;
// under the plain build they still verify that no updates are lost under
// contention.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/delay_provider.hpp"
#include "core/dutil.hpp"
#include "core/engine.hpp"
#include "core/features.hpp"
#include "des/run_api.hpp"
#include "obs/handles.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "obs/trace_log.hpp"
#include "topo/builders.hpp"
#include "topo/routing.hpp"
#include "traffic/traffic_gen.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/work_stealing_pool.hpp"

namespace {

using namespace dqn;

void run_threads(std::size_t count, const std::function<void(std::size_t)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(count);
  for (std::size_t t = 0; t < count; ++t) threads.emplace_back(fn, t);
  for (auto& thread : threads) thread.join();
}

TEST(concurrency, metric_registry_counts_exactly_under_contention) {
  obs::metric_registry registry;
  constexpr std::size_t writers = 8;
  constexpr std::size_t ops = 500;
  std::atomic<bool> stop{false};
  // A reader hammering snapshots while writers mutate: the snapshot must
  // always be internally consistent, and the final counts exact.
  std::thread reader{[&] {
    while (!stop.load()) {
      const auto snap = registry.snapshot();
      (void)snap;
    }
  }};
  run_threads(writers, [&](std::size_t t) {
    for (std::size_t i = 0; i < ops; ++i) {
      registry.add("shared.counter");
      registry.observe("shared.histogram", static_cast<double>(i));
      registry.set("shared.gauge", static_cast<double>(t));
    }
  });
  stop.store(true);
  reader.join();
  EXPECT_EQ(registry.counter("shared.counter"),
            static_cast<double>(writers * ops));
  EXPECT_EQ(registry.histogram("shared.histogram").count, writers * ops);
}

TEST(concurrency, trace_log_keeps_every_event) {
  obs::trace_log log;
  constexpr std::size_t writers = 4;
  constexpr std::size_t events = 500;
  run_threads(writers, [&](std::size_t t) {
    for (std::size_t i = 0; i < events; ++i) {
      obs::trace_event ev;
      ev.stage = "writer" + std::to_string(t);
      ev.name = "tick";
      ev.index = i;
      log.record(ev);
    }
  });
  EXPECT_EQ(log.size(), writers * events);
  for (std::size_t t = 0; t < writers; ++t) {
    const auto mine = log.events_of("writer" + std::to_string(t), "tick");
    EXPECT_EQ(mine.size(), events);
  }
}

// The sharded lock-free handle path: many threads hammer the same
// pre-resolved counter/gauge/histogram handles while a reader thread takes
// snapshots concurrently. Counters and histogram counts must be exact; the
// gauge must end on one of the written values; every snapshot the reader
// observed must be internally consistent (count never exceeds the final
// total). This is the dedicated TSan workload for the per-thread shards.
TEST(concurrency, sharded_handles_are_exact_under_snapshotting_reader) {
  constexpr std::size_t writers = 8;
  constexpr std::size_t ops = 5'000;
  obs::sink sink;
  auto counter = sink.counter_handle_for("stress.counter");
  auto gauge = sink.gauge_handle_for("stress.gauge");
  auto histogram = sink.histogram_handle_for("stress.hist");

  std::atomic<bool> done{false};
  std::thread reader{[&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = sink.metrics().snapshot();
      const auto it = snap.histograms.find("stress.hist");
      if (it != snap.histograms.end()) {
        EXPECT_LE(it->second.count, writers * ops);
      }
    }
  }};
  run_threads(writers, [&](std::size_t t) {
    obs::counter_handle my_counter = counter;      // handles are value types
    obs::gauge_handle my_gauge = gauge;
    obs::histogram_handle my_histogram = histogram;
    for (std::size_t i = 0; i < ops; ++i) {
      my_counter.add();
      my_gauge.set(static_cast<double>(t + 1));
      my_histogram.observe(static_cast<double>(i % 100));
    }
  });
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_DOUBLE_EQ(sink.metrics().counter("stress.counter"),
                   static_cast<double>(writers * ops));
  const double last_gauge = sink.metrics().gauge("stress.gauge");
  EXPECT_GE(last_gauge, 1.0);
  EXPECT_LE(last_gauge, static_cast<double>(writers));
  const auto h = sink.metrics().histogram("stress.hist");
  EXPECT_EQ(h.count, writers * ops);
  EXPECT_DOUBLE_EQ(h.min, 0.0);
  EXPECT_DOUBLE_EQ(h.max, 99.0);
}

// Spans opened concurrently on many threads (each nesting two levels, all
// parented to one root via its explicit id) must all land in the ring with
// correct parentage and per-thread ordinals.
TEST(concurrency, spans_record_hierarchy_from_competing_threads) {
  constexpr std::size_t workers = 6;
  obs::sink sink;
  obs::scoped_span root{&sink, "stress", "root"};
  run_threads(workers, [&, parent = root.id()](std::size_t t) {
    obs::scoped_span outer{&sink, "stress", "outer", t, 0.0, parent};
    obs::scoped_span inner{&sink, "stress", "inner", t};
  });
  root.stop();

  const auto outers = sink.trace().events_of("stress", "outer");
  const auto inners = sink.trace().events_of("stress", "inner");
  ASSERT_EQ(outers.size(), workers);
  ASSERT_EQ(inners.size(), workers);
  for (const auto& ev : outers) EXPECT_EQ(ev.parent_id, root.id());
  // Each inner span auto-parents to its own thread's outer span.
  std::map<std::uint64_t, std::uint64_t> outer_by_index;
  for (const auto& ev : outers) outer_by_index[ev.index] = ev.span_id;
  for (const auto& ev : inners)
    EXPECT_EQ(ev.parent_id, outer_by_index[ev.index]);
}

TEST(concurrency, sink_accepts_concurrent_mixed_traffic) {
  obs::sink sink;
  run_threads(6, [&](std::size_t t) {
    for (std::size_t i = 0; i < 200; ++i) {
      sink.count("c");
      sink.observe("h", static_cast<double>(i));
      sink.event("stage", "ev", i, 0.0, 0.0, static_cast<double>(t));
    }
  });
  EXPECT_EQ(sink.metrics().counter("c"), 6.0 * 200.0);
  EXPECT_EQ(sink.trace().size(), 6u * 200u);
}

// One tiny trained PTM shared by the engine/provider tests below (training
// dominates their runtime).
std::shared_ptr<const core::ptm_model> tiny_ptm() {
  static const core::device_model_bundle bundle = [] {
    core::dutil_config cfg;
    cfg.ports = 4;
    cfg.streams = 20;
    cfg.packets_per_stream = 400;
    cfg.ptm.time_steps = 8;
    cfg.ptm.mlp_hidden = {32, 16};
    cfg.ptm.epochs = 5;
    cfg.seed = 7;
    return core::train_device_model(cfg);
  }();
  return {&bundle.model, [](const core::ptm_model*) {}};
}

TEST(concurrency, partitioned_engine_matches_single_partition_run) {
  // The IRSA inference loop fans device batches out over the work-stealing
  // pool; under TSan this is the test that drives that path. Determinism
  // check: 4 partitions must produce byte-identical deliveries to 1 partition.
  const auto ptm = tiny_ptm();

  const auto topo = topo::make_fattree16();
  const topo::routing routes{topo};
  util::rng rng{11};
  auto flows = traffic::make_uniform_flows(16, 1, rng);
  traffic::tg_util_config tg;
  tg.per_flow_rate = 30'000.0;
  tg.seed = 11;
  auto generators = traffic::make_generators(flows, tg);
  const auto streams = traffic::per_host_streams(generators, 16, 0.005, rng);

  core::engine_config serial_cfg;
  serial_cfg.partitions = 1;
  core::engine_config parallel_cfg;
  parallel_cfg.partitions = 4;
  core::dqn_network serial{topo, routes, ptm, {}, serial_cfg};
  core::dqn_network parallel{topo, routes, ptm, {}, parallel_cfg};

  const auto serial_result = serial.run(streams, 0.005);
  const auto parallel_result = parallel.run(streams, 0.005);

  ASSERT_EQ(serial_result.deliveries.size(), parallel_result.deliveries.size());
  for (std::size_t i = 0; i < serial_result.deliveries.size(); ++i) {
    EXPECT_EQ(serial_result.deliveries[i].pid,
              parallel_result.deliveries[i].pid);
    EXPECT_DOUBLE_EQ(serial_result.deliveries[i].delivery_time,
                     parallel_result.deliveries[i].delivery_time);
  }
}

// The delay provider's threading contract: estimate_sojourn may run
// concurrently. Each thread hammers its own device id against one shared
// tiered provider with SP queues, which take the PTM; the relaxed tier
// counters must stay exact, and every call must return the serial answer bit
// for bit. This is the TSan workload for the tiered dispatch path.
TEST(concurrency, tiered_provider_counts_exactly_across_devices) {
  constexpr std::size_t workers = 8;
  constexpr std::size_t calls_per_worker = 50;
  constexpr std::size_t packets = 10;

  core::tiered_delay_provider provider{tiny_ptm()};

  traffic::packet_stream stream;
  double t = 0;
  for (std::size_t i = 0; i < packets; ++i) {
    traffic::packet p;
    p.pid = i;
    p.size_bytes = 1000;
    t += 5e-6;
    stream.push_back({p, t});
  }
  core::scheduler_context ctx;
  ctx.kind = des::scheduler_kind::sp;
  const auto rows = core::compute_features(stream, ctx);
  core::device_state serial_state;
  serial_state.arrivals = &stream;
  serial_state.feature_rows = rows;
  serial_state.ctx = &ctx;
  const auto expected =
      core::ptm_delay_provider{tiny_ptm()}.estimate_sojourn(serial_state, t);
  ASSERT_EQ(expected.size(), packets);

  run_threads(workers, [&](std::size_t worker) {
    core::device_state state = serial_state;
    state.device = static_cast<std::int64_t>(worker);
    for (std::size_t i = 0; i < calls_per_worker; ++i) {
      const auto sojourns = provider.estimate_sojourn(state, t);
      ASSERT_EQ(sojourns.size(), packets);
      EXPECT_EQ(std::memcmp(sojourns.data(), expected.data(),
                            packets * sizeof(double)),
                0);
    }
  });

  const auto stats = provider.stats();
  EXPECT_EQ(stats.ptm_calls, workers * calls_per_worker);
  EXPECT_EQ(stats.ptm_packets, workers * calls_per_worker * packets);
  EXPECT_EQ(stats.analytical_calls, 0u);
  EXPECT_DOUBLE_EQ(stats.analytical_fraction(), 0.0);
}

// Same determinism bar as the pure-PTM partition test on the tiered backend:
// the switches are SP, so every switch queue takes the PTM from several
// workers while the host NICs take the closed form, and the partition count
// must not change a single delivery.
TEST(concurrency, partitioned_tiered_engine_matches_single_partition_run) {
  const auto ptm = tiny_ptm();
  const auto topo = topo::make_fattree16();
  const topo::routing routes{topo};
  util::rng rng{11};
  auto flows = traffic::make_uniform_flows(16, 1, rng);
  traffic::tg_util_config tg;
  tg.per_flow_rate = 30'000.0;
  tg.seed = 11;
  auto generators = traffic::make_generators(flows, tg);
  const auto streams = traffic::per_host_streams(generators, 16, 0.005, rng);

  const des::delay_policy policy{.backend = des::delay_backend::tiered};
  core::scheduler_context switches;
  switches.kind = des::scheduler_kind::sp;
  core::engine_config serial_cfg;
  serial_cfg.partitions = 1;
  serial_cfg.delay = policy;
  core::engine_config parallel_cfg;
  parallel_cfg.partitions = 4;
  parallel_cfg.delay = policy;
  core::dqn_network serial{topo, routes, ptm, switches, serial_cfg};
  core::dqn_network parallel{topo, routes, ptm, switches, parallel_cfg};

  const auto serial_result = serial.run(streams, 0.005);
  const auto parallel_result = parallel.run(streams, 0.005);

  ASSERT_EQ(serial_result.deliveries.size(), parallel_result.deliveries.size());
  for (std::size_t i = 0; i < serial_result.deliveries.size(); ++i) {
    EXPECT_EQ(serial_result.deliveries[i].pid,
              parallel_result.deliveries[i].pid);
    EXPECT_DOUBLE_EQ(serial_result.deliveries[i].delivery_time,
                     parallel_result.deliveries[i].delivery_time);
  }
}

// util/mutex.hpp + util/annotations.hpp: the annotated primitives must be
// drop-in equivalents of the std types they wrap — exact counts under
// contention through a DQN_GUARDED_BY member, lock() release via try_lock
// observability, and a working condition-variable handshake. (The *static*
// guarantees — a compile break on unlocked access — are pinned by
// tests/lint_fixtures/ and the CI -Wthread-safety build; this exercises the
// runtime half.)
TEST(concurrency, util_mutex_guards_exact_count_under_contention) {
  struct guarded_counter {
    util::mutex mutex;
    long value DQN_GUARDED_BY(mutex) = 0;
  };
  guarded_counter counter;
  constexpr std::size_t threads = 8;
  constexpr std::size_t increments = 5'000;
  run_threads(threads, [&](std::size_t) {
    for (std::size_t i = 0; i < increments; ++i) {
      const util::lock_guard lock{counter.mutex};
      ++counter.value;
    }
  });
  const util::lock_guard lock{counter.mutex};
  EXPECT_EQ(counter.value, static_cast<long>(threads * increments));
}

TEST(concurrency, util_mutex_try_lock_reflects_lock_state) {
  util::mutex mutex;
  mutex.lock();
  std::thread prober{[&mutex] { EXPECT_FALSE(mutex.try_lock()); }};
  prober.join();
  mutex.unlock();
  ASSERT_TRUE(mutex.try_lock());
  mutex.unlock();
}

TEST(concurrency, util_condition_variable_handshake) {
  util::mutex mutex;
  util::condition_variable cv;
  // (guarded_by is member/global-only; a function-local can't carry it.)
  bool ready = false;
  long observed = -1;
  std::thread waiter{[&] {
    util::unique_lock lock{mutex};
    while (!ready) cv.wait(lock);
    observed = 42;
  }};
  {
    const util::lock_guard lock{mutex};
    ready = true;
  }
  cv.notify_one();
  waiter.join();
  EXPECT_EQ(observed, 42);
}

// --- work-stealing scheduler (util/work_stealing_pool.hpp) ---------------
//
// The deque semantics the engine's determinism contract leans on: owners
// drain their seed order FIFO, thieves take the back half, and every task
// runs exactly once no matter who ran it.

TEST(concurrency, steal_deque_owner_fifo_and_steal_half) {
  util::steal_deque deque;
  for (std::size_t task = 1; task <= 5; ++task) deque.push_back(task);
  EXPECT_EQ(deque.size(), 5u);

  std::size_t task = 0;
  ASSERT_TRUE(deque.pop_front(&task));
  EXPECT_EQ(task, 1u);  // FIFO: seed order

  // Thief takes ceil(4/2) = 2 from the back, in deque order.
  const auto stolen = deque.steal_half();
  ASSERT_EQ(stolen.size(), 2u);
  EXPECT_EQ(stolen[0], 4u);
  EXPECT_EQ(stolen[1], 5u);

  ASSERT_TRUE(deque.pop_front(&task));
  EXPECT_EQ(task, 2u);
  ASSERT_TRUE(deque.pop_front(&task));
  EXPECT_EQ(task, 3u);
  EXPECT_FALSE(deque.pop_front(&task));  // exhausted
  EXPECT_TRUE(deque.empty());
  EXPECT_TRUE(deque.steal_half().empty());

  // A single remaining task IS stolen (the owner may be busy for ms).
  deque.push_back(9);
  const auto last = deque.steal_half();
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0], 9u);
}

TEST(concurrency, steal_deque_concurrent_steal_stress_loses_nothing) {
  // One owner popping the front races four thieves stealing the back; the
  // union of what everyone got must be exactly the seeded set. This is the
  // TSan workload for the deque locking.
  constexpr std::size_t tasks = 10'000;
  constexpr std::size_t thieves = 4;
  util::steal_deque deque;
  for (std::size_t task = 0; task < tasks; ++task) deque.push_back(task);

  std::vector<std::vector<std::size_t>> got(1 + thieves);
  std::atomic<bool> owner_done{false};
  run_threads(1 + thieves, [&](std::size_t t) {
    if (t == 0) {
      std::size_t task = 0;
      while (deque.pop_front(&task)) got[t].push_back(task);
      owner_done.store(true);
    } else {
      for (;;) {
        const auto stolen = deque.steal_half();
        got[t].insert(got[t].end(), stolen.begin(), stolen.end());
        if (stolen.empty() && owner_done.load()) break;
        std::this_thread::yield();
      }
    }
  });

  std::vector<std::uint8_t> seen(tasks, 0);
  std::size_t total = 0;
  for (const auto& list : got)
    for (const std::size_t task : list) {
      EXPECT_EQ(seen[task], 0u) << "task " << task << " ran twice";
      seen[task] = 1;
      ++total;
    }
  EXPECT_EQ(total, tasks);
}

TEST(concurrency, work_stealing_pool_runs_each_task_exactly_once) {
  constexpr std::size_t workers = 4;
  constexpr std::size_t tasks = 500;
  util::work_stealing_pool pool{workers};
  EXPECT_EQ(pool.size(), workers);

  std::vector<std::vector<std::size_t>> seeds(workers);
  for (std::size_t task = 0; task < tasks; ++task)
    seeds[task % workers].push_back(task);
  std::vector<std::atomic<int>> counts(tasks);
  (void)pool.run_round(seeds, [&counts](std::size_t task, std::size_t) {
    counts[task].fetch_add(1);
  });
  EXPECT_EQ(pool.remaining(), 0u);
  for (std::size_t task = 0; task < tasks; ++task)
    EXPECT_EQ(counts[task].load(), 1) << "task " << task;
}

TEST(concurrency, work_stealing_pool_steals_from_imbalanced_seed) {
  // Everything seeded on worker 0, each task sleeping: the other three
  // workers have nothing of their own and MUST steal to finish the round.
  constexpr std::size_t workers = 4;
  constexpr std::size_t tasks = 24;
  util::work_stealing_pool pool{workers};
  std::vector<std::vector<std::size_t>> seeds(workers);
  for (std::size_t task = 0; task < tasks; ++task) seeds[0].push_back(task);

  std::vector<std::atomic<int>> counts(tasks);
  std::atomic<std::size_t> ran_elsewhere{0};
  const std::uint64_t steals =
      pool.run_round(seeds, [&](std::size_t task, std::size_t worker) {
        std::this_thread::sleep_for(std::chrono::milliseconds{2});
        counts[task].fetch_add(1);
        if (worker != 0) ran_elsewhere.fetch_add(1);
      });
  for (std::size_t task = 0; task < tasks; ++task)
    EXPECT_EQ(counts[task].load(), 1);
  EXPECT_GT(steals, 0u);
  EXPECT_GT(ran_elsewhere.load(), 0u);
  EXPECT_EQ(pool.total_steals(), steals);
}

TEST(concurrency, work_stealing_pool_propagates_first_exception) {
  util::work_stealing_pool pool{2};
  std::vector<std::vector<std::size_t>> seeds(2);
  for (std::size_t task = 0; task < 10; ++task)
    seeds[task % 2].push_back(task);
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(
      (void)pool.run_round(seeds,
                           [&executed](std::size_t task, std::size_t) {
                             executed.fetch_add(1);
                             if (task == 3)
                               throw std::runtime_error{"task 3 failed"};
                           }),
      std::runtime_error);
  // The round barrier holds on failure: every task still ran.
  EXPECT_EQ(executed.load(), 10u);
  EXPECT_EQ(pool.remaining(), 0u);

  // And the pool is reusable afterwards.
  std::atomic<std::size_t> second{0};
  (void)pool.run_round(seeds, [&second](std::size_t, std::size_t) {
    second.fetch_add(1);
  });
  EXPECT_EQ(second.load(), 10u);

  // Two tasks throw, the higher-numbered one first: the round still reports
  // the lower one. Task 2 is seeded on worker 0 and task 7 on worker 1; a
  // worker steals only once its own deque is empty, so whichever worker
  // waits in task 2 cannot hold task 7 behind it.
  const std::vector<std::vector<std::size_t>> split{{0, 1, 2, 3, 4},
                                                    {5, 6, 7, 8, 9}};
  std::latch higher_thrown{1};
  try {
    (void)pool.run_round(
        split, [&higher_thrown](std::size_t task, std::size_t) {
          if (task == 7) {
            higher_thrown.count_down();
            throw std::runtime_error{"task 7 failed"};
          }
          if (task == 2) {
            higher_thrown.wait();
            std::this_thread::sleep_for(std::chrono::milliseconds{20});
            throw std::runtime_error{"task 2 failed"};
          }
        });
    ADD_FAILURE() << "round with failing tasks did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 2 failed");
  }
}

TEST(concurrency, work_stealing_pool_rounds_accumulate_exactly) {
  constexpr std::size_t workers = 3;
  constexpr std::size_t rounds = 20;
  constexpr std::size_t tasks = 60;
  util::work_stealing_pool pool{workers};
  std::vector<std::vector<std::size_t>> seeds(workers);
  for (std::size_t task = 0; task < tasks; ++task)
    seeds[task % workers].push_back(task);
  std::atomic<std::size_t> executed{0};
  for (std::size_t round = 0; round < rounds; ++round) {
    (void)pool.run_round(seeds, [&executed](std::size_t, std::size_t) {
      executed.fetch_add(1);
    });
    EXPECT_EQ(pool.remaining(), 0u);
  }
  EXPECT_EQ(executed.load(), rounds * tasks);
  EXPECT_THROW((void)pool.run_round({}, [](std::size_t, std::size_t) {}),
               std::invalid_argument);
}

// Acceptance workload for the engine.steals export: a single hot flow
// concentrates essentially all inference work in one topology shard, and
// with the automatic batch (one device per batch at four workers here) the
// idle workers steal it back. Work placement must not change a result.
TEST(concurrency, sharded_engine_exports_steals_and_imbalance) {
  const auto ptm = tiny_ptm();
  const auto topo = topo::make_fattree16();
  const topo::routing routes{topo};

  // One flow, host 0 -> host 8 (cross-cluster): only the devices on that
  // path see traffic; every other shard's devices are near-free to compute.
  std::vector<traffic::packet_stream> streams(16);
  double t = 0;
  for (std::uint64_t pid = 0; pid < 300; ++pid) {
    traffic::packet p;
    p.pid = pid;
    p.flow_id = 1;
    p.dst_host = 8;
    p.size_bytes = 1000;
    t += 1.2e-5;
    streams[0].push_back({p, t});
  }

  core::engine_config single_cfg;
  single_cfg.irsa_skip_unchanged = false;
  core::dqn_network single{topo, routes, ptm, {}, single_cfg};
  const auto single_result = single.run(streams, 0.005);

  // Steal counts are timing-dependent (never results), so accumulate runs
  // until observed rather than asserting one race resolution.
  core::engine_config stealing_cfg = single_cfg;
  stealing_cfg.partitions = 4;
  core::dqn_network stealing{topo, routes, ptm, {}, stealing_cfg};
  std::uint64_t steals = 0;
  des::run_result stealing_result;
  for (int attempt = 0; attempt < 8 && steals == 0; ++attempt) {
    stealing_result = stealing.run(streams, 0.005);
    steals += stealing.stats().steals;
  }
  EXPECT_EQ(stealing.stats().workers, 4u);
  EXPECT_GT(stealing.stats().cross_shard_links, 0u);
  EXPECT_GT(steals, 0u);

  // Work placement must not change results: the 4-worker and 1-worker runs
  // agree bit for bit.
  ASSERT_EQ(single_result.deliveries.size(), stealing_result.deliveries.size());
  for (std::size_t i = 0; i < single_result.deliveries.size(); ++i) {
    EXPECT_EQ(single_result.deliveries[i].pid,
              stealing_result.deliveries[i].pid);
    EXPECT_DOUBLE_EQ(single_result.deliveries[i].delivery_time,
                     stealing_result.deliveries[i].delivery_time);
  }

  // publish() writes the stats as engine.* metrics.
  obs::sink sink;
  const core::engine_stats& stats = stealing.stats();
  stats.publish(sink);
  const auto& metrics = sink.metrics();
  EXPECT_EQ(metrics.counter("engine.steals"),
            static_cast<double>(stats.steals));
  EXPECT_EQ(metrics.gauge("engine.converged"), stats.converged ? 1.0 : 0.0);
  EXPECT_EQ(metrics.gauge("engine.final_changed_devices"),
            static_cast<double>(stats.final_changed_devices));
  EXPECT_EQ(metrics.gauge("engine.workers"),
            static_cast<double>(stats.workers));
  EXPECT_EQ(metrics.gauge("engine.cross_shard_links"),
            static_cast<double>(stats.cross_shard_links));
  EXPECT_DOUBLE_EQ(metrics.gauge("engine.shard_imbalance"),
                   stats.shard_imbalance);
}

}  // namespace

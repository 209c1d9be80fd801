// Micro-benchmarks (google-benchmark) of the hot kernels every experiment
// rides on: the matmul behind PTM inference, the dense layers' tanh, the
// PTM's window-vs-row input paths, scheduler enqueue/dequeue, the
// DES event loop (bare and with a live obs counter handle), W1 metric
// computation, PFM forwarding, and the observability primitives — scoped
// timer, sharded metric handles — in both their no-op and recording modes.
// The 0-vs-1 arg pairs quantify the "live sink < 5% over null sink"
// overhead budget the obs layer is held to.
//
// Honors DQN_BENCH_JSON (bench/common.hpp): when set, the recording-mode
// benchmarks route through the shared bench sink and the registry snapshot
// is dumped at exit — CI uploads it as the perf-trajectory artifact.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/delay_provider.hpp"
#include "core/features.hpp"
#include "core/ptm.hpp"
#include "core/pfm.hpp"
#include "des/simulator.hpp"
#include "des/traffic_manager.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/kernels/tanh.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"
#include "nn/seq.hpp"
#include "nn/seq_regressor.hpp"
#include "nn/workspace.hpp"
#include "obs/handles.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/sink.hpp"
#include "stats/wasserstein.hpp"
#include "util/rng.hpp"

using namespace dqn;

namespace {

// The sink recording-mode benchmarks write into: the shared DQN_BENCH_JSON
// sink when profiling is on (so the exported snapshot has real content),
// otherwise a process-local one.
obs::sink& recording_sink() {
  static obs::sink local;
  obs::sink* shared = bench::bench_sink();
  return shared != nullptr ? *shared : local;
}

void bm_matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::rng rng{1};
  const auto a = nn::matrix::randn(n, n, rng, 1.0);
  const auto b = nn::matrix::randn(n, n, rng, 1.0);
  for (auto _ : state) {
    auto c = nn::matmul(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(bm_matmul)->Arg(32)->Arg(64)->Arg(128);

// --- GEMM backend pairs -----------------------------------------------------
// Naive vs blocked vs SIMD at PTM-typical shapes. The CI perf-smoke job runs
// bm_gemm_backend and gates on dispatched-vs-naive; the ≥4x acceptance number
// in docs/PERFORMANCE.md comes from the (256, 64, 357) row — the MLP PTM's
// first layer over a batch of 256 flattened 21x17 windows.
struct gemm_bench_shape {
  std::size_t m, n, k;
};
constexpr gemm_bench_shape kGemmShapes[] = {
    {256, 64, 357},  // MLP PTM layer 1: batch 256 x flattened window
    {256, 32, 64},   // MLP PTM layer 2
    {256, 128, 17},  // LSTM x_t·Wx: batch x 4H, k = feature_count
    {21, 21, 16},    // attention scores: T x T over key_dim
};

void bm_gemm_backend(benchmark::State& state) {
  const auto be = static_cast<nn::kernels::backend>(state.range(0));
  const auto& shape = kGemmShapes[static_cast<std::size_t>(state.range(1))];
  if (!nn::kernels::backend_supported(be)) {
    state.SkipWithError("backend not compiled in or unsupported on this CPU");
    return;
  }
  util::rng rng{7};
  const auto a = nn::matrix::randn(shape.m, shape.k, rng, 1.0);
  const auto b = nn::matrix::randn(shape.k, shape.n, rng, 1.0);
  nn::matrix c{shape.m, shape.n};
  for (auto _ : state) {
    nn::kernels::gemm_nn(be, a.data().data(), b.data().data(), c.data().data(),
                         shape.m, shape.n, shape.k, /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * shape.m * shape.n * shape.k);
  state.SetLabel(std::string{nn::kernels::to_string(be)} + " " +
                 std::to_string(shape.m) + "x" + std::to_string(shape.n) +
                 "x" + std::to_string(shape.k));
}
void register_gemm_backend_benches() {
  using nn::kernels::backend;
  for (const auto be :
       {backend::naive, backend::blocked, backend::avx2, backend::avx512})
    for (std::size_t s = 0; s < std::size(kGemmShapes); ++s)
      if (nn::kernels::backend_supported(be))
        benchmark::RegisterBenchmark("bm_gemm_backend", bm_gemm_backend)
            ->Args({static_cast<std::int64_t>(be), static_cast<std::int64_t>(s)});
}

// --- tanh row kernels --------------------------------------------------------
// std::tanh per element vs each backend's tanh_row over one 2000-packet PTM
// batch's hidden activations: 2000 rows x (96 + 48) values, drawn from
// N(0, 1.5). Arg -1 is std::tanh; other args are backend ids. Each iteration
// restores the block from the input and times only the tanh pass. The CI
// perf-smoke job gates the dispatched backend (the "kernel_backend" context
// key) at 2x over std.
constexpr std::size_t kTanhRows = 2000;
constexpr std::size_t kTanhCols = 144;

void bm_tanh_row(benchmark::State& state) {
  const bool use_std = state.range(0) < 0;
  const auto be = static_cast<nn::kernels::backend>(state.range(0));
  util::rng rng{9};
  std::vector<double> input(kTanhRows * kTanhCols);
  for (auto& v : input) v = rng.normal(0.0, 1.5);
  std::vector<double> x(input.size());
  for (auto _ : state) {
    std::copy(input.begin(), input.end(), x.begin());
    const auto start = std::chrono::steady_clock::now();
    if (use_std) {
      for (auto& v : x) v = std::tanh(v);
    } else {
      for (std::size_t r = 0; r < kTanhRows; ++r)
        nn::kernels::tanh_row(be, x.data() + r * kTanhCols, kTanhCols);
    }
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
  }
  state.SetItemsProcessed(state.iterations() * kTanhRows * kTanhCols);
  state.SetLabel(std::string{use_std ? "std" : nn::kernels::to_string(be)} +
                 " " + std::to_string(kTanhRows) + "x" +
                 std::to_string(kTanhCols));
}
void register_tanh_row_benches() {
  using nn::kernels::backend;
  benchmark::RegisterBenchmark("bm_tanh_row", bm_tanh_row)
      ->Arg(-1)
      ->UseManualTime();
  for (const auto be :
       {backend::naive, backend::blocked, backend::avx2, backend::avx512})
    if (nn::kernels::backend_supported(be))
      benchmark::RegisterBenchmark("bm_tanh_row", bm_tanh_row)
          ->Arg(static_cast<std::int64_t>(be))
          ->UseManualTime();
}

// --- Forward-pass pairs: allocating vs workspace ---------------------------
// Arg 0: legacy forward_const (allocates every intermediate). Arg 1: the
// workspace overload (zero steady-state allocations). The delta is what the
// engine's per-worker workspaces buy on the inference hot path.
void bm_seq_regressor_forward(benchmark::State& state) {
  util::rng rng{8};
  nn::seq_regressor_config cfg;  // defaults = CPU-scaled Table 1 widths
  nn::seq_regressor net{cfg, rng};
  nn::seq_batch x{64, 21, cfg.input_dim};
  for (auto& v : x.data()) v = rng.uniform(-1.0, 1.0);
  nn::workspace ws;
  for (auto _ : state) {
    if (state.range(0) == 0) {
      auto y = net.forward_const(x);
      benchmark::DoNotOptimize(y.data().data());
    } else {
      ws.reset();
      const nn::matrix& y = net.forward(x, ws);
      benchmark::DoNotOptimize(y.data().data());
    }
  }
  state.SetItemsProcessed(state.iterations() * x.batch());
}
BENCHMARK(bm_seq_regressor_forward)->Arg(0)->Arg(1);

void bm_mlp_forward(benchmark::State& state) {
  util::rng rng{9};
  nn::mlp net{{357, 64, 32, 1}, nn::activation::relu, rng};
  nn::matrix x{256, 357};
  for (auto& v : x.data()) v = rng.uniform(-1.0, 1.0);
  nn::workspace ws;
  for (auto _ : state) {
    if (state.range(0) == 0) {
      auto y = net.forward_const(x);
      benchmark::DoNotOptimize(y.data().data());
    } else {
      ws.reset();
      const nn::matrix& y = net.forward(x, ws);
      benchmark::DoNotOptimize(y.data().data());
    }
  }
  state.SetItemsProcessed(state.iterations() * x.rows());
}
BENCHMARK(bm_mlp_forward)->Arg(0)->Arg(1);

// --- PTM input pairs: window path vs row path ------------------------------
// Arg 0: the window path — make_windows materializes the (n, 12, 17)
// windows, then predict copies and scales all of them. Arg 1: the row path
// the engine takes — estimate_sojourn scales each row once and the first
// GEMM reads the overlapping windows in place. Both run the e2e benchmark's
// model shape (204→96→48→1) over one n = 2000 packet series, with reused
// workspaces; ns_per_pkt is wall time per packet.
struct ptm_input_fixture {
  std::shared_ptr<const core::ptm_model> ptm;
  traffic::packet_stream arrivals;
  core::scheduler_context ctx;
  std::vector<double> rows;
};

const ptm_input_fixture& ptm_input() {
  static const ptm_input_fixture fx = [] {
    ptm_input_fixture f;
    util::rng rng{10};
    double t = 0;
    for (std::uint64_t i = 0; i < 2000; ++i) {
      t += rng.exponential(8e4);
      traffic::packet p;
      p.pid = i;
      p.size_bytes = static_cast<std::uint32_t>(rng.uniform_int(64, 1500));
      f.arrivals.push_back({p, t});
    }
    f.ctx.bandwidth_bps = 1e9;
    f.rows = core::compute_features(f.arrivals, f.ctx);
    core::ptm_config cfg;
    cfg.time_steps = 12;
    cfg.mlp_hidden = {96, 48};
    cfg.epochs = 1;
    core::ptm_dataset data;
    data.time_steps = cfg.time_steps;
    data.windows = core::make_windows(f.rows, cfg.time_steps);
    for (std::size_t i = 0; i < f.arrivals.size(); ++i)
      data.targets.push_back(
          f.rows[i * core::feature_count + core::f_unfinished_work]);
    core::ptm_model model{cfg};
    (void)model.train(data);
    f.ptm = std::make_shared<const core::ptm_model>(std::move(model));
    return f;
  }();
  return fx;
}

void bm_ptm_input_path(benchmark::State& state) {
  const ptm_input_fixture& fx = ptm_input();
  core::ptm_delay_provider provider{fx.ptm};
  nn::workspace ws;
  core::device_state device;
  device.arrivals = &fx.arrivals;
  device.feature_rows = fx.rows;
  device.ctx = &fx.ctx;
  device.workspace = &ws;
  const std::size_t time_steps = fx.ptm->config().time_steps;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    if (state.range(0) == 0) {
      const auto windows = core::make_windows(fx.rows, time_steps);
      auto y = provider.predict_windows(windows);
      benchmark::DoNotOptimize(y.data());
    } else {
      auto y = provider.estimate_sojourn(device, 0.0);
      benchmark::DoNotOptimize(y.data());
    }
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  const auto packets = state.iterations() *
                       static_cast<std::int64_t>(fx.arrivals.size());
  state.SetItemsProcessed(packets);
  state.counters["ns_per_pkt"] = elapsed.count() / static_cast<double>(packets);
}
BENCHMARK(bm_ptm_input_path)->Arg(0)->Arg(1);

void bm_traffic_manager(benchmark::State& state) {
  const auto kind = static_cast<des::scheduler_kind>(state.range(0));
  des::tm_config cfg;
  cfg.kind = kind;
  cfg.classes = kind == des::scheduler_kind::fifo ? 1 : 3;
  if (kind == des::scheduler_kind::wrr || kind == des::scheduler_kind::drr ||
      kind == des::scheduler_kind::wfq)
    cfg.class_weights = {5, 3, 1};
  des::traffic_manager tm{cfg};
  util::rng rng{2};
  traffic::packet p;
  for (auto _ : state) {
    p.size_bytes = static_cast<std::uint32_t>(rng.uniform_int(64, 1500));
    p.priority = static_cast<std::uint8_t>(rng.uniform_int(cfg.classes));
    benchmark::DoNotOptimize(tm.enqueue(p));
    auto out = tm.dequeue();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_traffic_manager)
    ->Arg(static_cast<int>(des::scheduler_kind::fifo))
    ->Arg(static_cast<int>(des::scheduler_kind::sp))
    ->Arg(static_cast<int>(des::scheduler_kind::wrr))
    ->Arg(static_cast<int>(des::scheduler_kind::drr))
    ->Arg(static_cast<int>(des::scheduler_kind::wfq));

// Arg 0: default (null) event-counter handle — one branch per event.
// Arg 1: live "des.events" handle into a recording sink — the instrumented
// event loop must stay within the 5% overhead budget of arg 0.
void bm_event_loop(benchmark::State& state) {
  const obs::counter_handle events =
      state.range(0) == 0 ? obs::counter_handle{}
                          : recording_sink().counter_handle_for("des.events");
  for (auto _ : state) {
    des::simulator sim;
    sim.set_event_counter(events);
    int counter = 0;
    for (int i = 0; i < 1000; ++i)
      sim.schedule_at(i * 1e-6, [&counter] { ++counter; });
    sim.run(1.0);
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(bm_event_loop)->Arg(0)->Arg(1);

void bm_wasserstein(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::rng rng{3};
  std::vector<double> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.exponential(1.0);
    b[i] = rng.exponential(1.2);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::wasserstein1(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(bm_wasserstein)->Arg(1000)->Arg(10000);

void bm_pfm_forwarding(benchmark::State& state) {
  const std::size_t ports = 8;
  util::rng rng{4};
  std::vector<traffic::packet_stream> ingress(ports);
  for (std::size_t port = 0; port < ports; ++port) {
    double t = 0;
    for (int i = 0; i < 1000; ++i) {
      t += rng.exponential(1e5);
      traffic::packet p;
      p.pid = port * 10000 + static_cast<std::uint64_t>(i);
      p.flow_id = static_cast<std::uint32_t>(rng.uniform_int(64));
      ingress[port].push_back({p, t});
    }
  }
  auto forward = [](std::uint32_t fid, std::size_t) -> std::size_t {
    return fid % 8;
  };
  for (auto _ : state) {
    auto egress = core::apply_forwarding(ingress, forward, ports);
    benchmark::DoNotOptimize(egress.data());
  }
  state.SetItemsProcessed(state.iterations() * ports * 1000);
}
BENCHMARK(bm_pfm_forwarding);

// Arg 0: null sink (the default in every config) — must be indistinguishable
// from no instrumentation at all. Arg 1: recording sink — the per-span cost
// paid only when the user opts into profiling.
void bm_obs_scoped_timer(benchmark::State& state) {
  obs::sink sink;
  obs::sink* target = state.range(0) == 0 ? nullptr : &sink;
  std::uint64_t index = 0;
  for (auto _ : state) {
    obs::scoped_timer timer{target, "bench", "span", index++};
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_obs_scoped_timer)->Arg(0)->Arg(1);

// Arg 0: default-constructed (null) counter handle — the one-branch no-op
// every un-profiled hot path pays. Arg 1: live handle — a relaxed atomic
// store into the caller's exclusive shard.
void bm_obs_counter_handle(benchmark::State& state) {
  const obs::counter_handle handle =
      state.range(0) == 0
          ? obs::counter_handle{}
          : recording_sink().counter_handle_for("bench.counter");
  for (auto _ : state) {
    obs::counter_handle local = handle;
    local.add();
    benchmark::DoNotOptimize(&local);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_obs_counter_handle)->Arg(0)->Arg(1);

// Same pairing for the quantile histogram: bucket index + shard update.
void bm_obs_histogram_handle(benchmark::State& state) {
  const obs::histogram_handle handle =
      state.range(0) == 0
          ? obs::histogram_handle{}
          : recording_sink().histogram_handle_for("bench.histogram");
  double value = 1e-6;
  for (auto _ : state) {
    obs::histogram_handle local = handle;
    local.observe(value);
    value = value < 1.0 ? value * 1.0001 : 1e-6;
    benchmark::DoNotOptimize(&local);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_obs_histogram_handle)->Arg(0)->Arg(1);

}  // namespace

// Not BENCHMARK_MAIN(): when DQN_BENCH_JSON profiling is on, the whole
// benchmark run is wrapped in one "bench"/"micro_kernels" span so the
// exported snapshot carries the run's wall time next to the handle metrics.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  register_gemm_backend_benches();
  register_tanh_row_benches();
  benchmark::AddCustomContext(
      "kernel_backend", nn::kernels::to_string(nn::kernels::active_backend()));
  {
    obs::scoped_timer run_timer{bench::bench_sink(), "bench", "micro_kernels"};
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}

// Packet-level traffic-management model (PTM, §3.2.2/§4.2): the per-device
// DNN that predicts each packet's sojourn time (scheduler waiting time) from
// a sliding window of augmented packet features.
//
// Two architectures are provided:
//  * `attention` — the paper's Figure 5 network: BLSTM encoder stack +
//    multi-head self-attention + dense head (Table 1, CPU-scaled widths);
//  * `mlp` — a flattened-window MLP. Same inputs, same targets, ~30x
//    cheaper inference; the default for network-scale simulation on CPU
//    (DESIGN.md §2 documents this GPU→CPU substitution).
#pragma once

#include <array>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "des/traffic_manager.hpp"

#include "core/sec.hpp"
#include "obs/handles.hpp"
#include "obs/sink.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "nn/scaler.hpp"
#include "nn/seq_regressor.hpp"
#include "nn/workspace.hpp"

namespace dqn::core {

enum class ptm_arch : std::uint8_t { mlp, attention };

[[nodiscard]] const char* to_string(ptm_arch arch) noexcept;

struct ptm_config {
  ptm_arch arch = ptm_arch::mlp;
  std::size_t time_steps = 21;  // Table 1
  // Attention variant (paper's (200,100) BLSTM scaled for CPU training).
  std::vector<std::size_t> lstm_hidden = {32, 16};
  std::size_t heads = 3;       // Table 1: 3 parallel heads
  std::size_t key_dim = 16;
  std::size_t value_dim = 16;
  std::size_t attention_out = 32;
  // MLP variant.
  std::vector<std::size_t> mlp_hidden = {64, 32};
  // Training (§5.2: Adam, lr 1e-3, batch 256, MSE).
  nn::adam_config adam;
  std::size_t batch_size = 256;
  std::size_t epochs = 12;
  std::uint64_t seed = 7;
  // Optional observability: train() records one "ptm"/"epoch" trace event
  // per epoch (duration = epoch wall time, value = scaled-space MSE) plus
  // gradient-norm and loss histograms. Null = no-op.
  obs::sink* sink = nullptr;
};

// Flattened training data: `windows` is (count, time_steps, feature_count)
// raw (unscaled) features; `targets` are sojourn times in seconds.
struct ptm_dataset {
  std::size_t time_steps = 0;
  std::vector<double> windows;
  std::vector<double> targets;

  [[nodiscard]] std::size_t count() const;
  void append(const ptm_dataset& other);
};

struct training_report {
  std::vector<double> epoch_mse;  // scaled-space MSE per epoch (Figure 7)
  double train_seconds = 0;
};

class ptm_model {
 public:
  ptm_model() = default;
  explicit ptm_model(const ptm_config& config);

  // Train on `data` (fits feature/target scalers first). `on_epoch` is
  // called after each epoch with (epoch, mse).
  training_report train(
      const ptm_dataset& data,
      const std::function<void(std::size_t, double)>& on_epoch = {});

  // Fit the SEC table from held-out data (uncorrected predictions vs truth).
  void fit_sec(const ptm_dataset& validation, double eps_fraction = 0.02,
               std::size_t min_points = 8);

  // Predict sojourn seconds for raw windows; thread-safe (const). SEC is
  // applied when fitted unless `apply_sec` is false (the §6.1 ablation).
  // `raw_out`, if non-null, receives the pre-SEC sojourns (same length as
  // the return value) — the journey tracer reports both so per-packet hops
  // show what SEC changed. When config().sink is set, predict records
  // "sec.corrections" / "sec.relative_correction" through lock-free handles
  // resolved once, at construction.
  [[nodiscard]] std::vector<double> predict(
      std::span<const double> windows, bool apply_sec = true,
      std::vector<double>* raw_out = nullptr) const;

  // Workspace-taking predict: the entire forward pass (scaled windows, layer
  // activations) runs out of `ws`, so the steady state allocates nothing.
  // The engine hands each partition worker its own workspace; callers that
  // share one across threads get data races. Resets `ws` on entry. When
  // config().sink is set, records the "nn.workspace_bytes" gauge through a
  // handle resolved at construction. The signature-compatible overload above
  // uses a thread_local workspace, keeping predict thread-safe for existing
  // callers.
  [[nodiscard]] std::vector<double> predict(
      std::span<const double> windows, nn::workspace& ws, bool apply_sec = true,
      std::vector<double>* raw_out = nullptr) const;

  // Row entry, the engine's path: `feature_rows` is one arrival series'
  // (n, feature_count) raw rows (compute_features). Predicts the window
  // ending at each row and equals
  // predict(make_windows(feature_rows, time_steps), ...) bit for bit, but
  // scales each row once and never materializes the windows: the MLP's
  // first GEMM reads them in place as overlapping rows. It also skips the
  // feature columns that are ±0.0 in every scaled row of the call (padding
  // included): the rows are compacted to the other columns and the first
  // layer multiplies only their weight rows, one GEMM per original k_block,
  // which keeps every bit on every kernel backend (nn/dense.hpp). Records
  // the kept column count on "ptm.kept_input_columns" (one observation per
  // non-empty call; the attention architecture keeps all 17). Same
  // workspace/SEC/raw_out/telemetry contract as above; the overload without
  // `ws` uses a thread_local workspace.
  [[nodiscard]] std::vector<double> predict_rows(
      std::span<const double> feature_rows, bool apply_sec = true,
      std::vector<double>* raw_out = nullptr) const;
  [[nodiscard]] std::vector<double> predict_rows(
      std::span<const double> feature_rows, nn::workspace& ws,
      bool apply_sec = true, std::vector<double>* raw_out = nullptr) const;

  [[nodiscard]] const ptm_config& config() const noexcept { return config_; }
  [[nodiscard]] bool trained() const noexcept { return trained_; }
  // SEC is fit per scheduler kind: the residual structure differs between
  // disciplines (Figure 6), so corrections must not cross-contaminate.
  [[nodiscard]] const sec_table& sec(des::scheduler_kind kind) const noexcept {
    return sec_[static_cast<std::size_t>(kind)];
  }

  // Interpretability (attention architecture only): run one raw window
  // through the network and return each head's attention matrix (T x T,
  // row i = the distribution packet i attends over the window). Throws for
  // the MLP architecture. Not thread-safe (uses the training forward pass).
  [[nodiscard]] std::vector<nn::matrix> attention_maps(
      std::span<const double> window);

  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  // Log-transform and min-max scale raw rows into `out` (same length).
  void scale_rows_into(std::span<const double> rows, double* out) const;
  [[nodiscard]] nn::seq_batch scale_windows(std::span<const double> windows) const;
  // The network pass over n windows, window i's scaled input being the
  // time_steps * feature_count doubles at scaled + i * stride: stride is the
  // window size for materialized windows and feature_count for rows. The
  // MLP's first GEMM reads the windows in place; attention copies them.
  [[nodiscard]] const nn::matrix& forward_scaled(const double* scaled,
                                                 std::size_t stride,
                                                 std::size_t n,
                                                 nn::workspace& ws) const;
  // The output stage shared by both entries: the network's scaled output
  // for window i becomes a sojourn (inverse transforms, SEC, raw_out), with
  // window i's raw final row ending at raw[(i + 1) * stride].
  [[nodiscard]] std::vector<double> to_sojourns(
      const nn::matrix& pred, std::span<const double> raw, std::size_t stride,
      const nn::workspace& ws, bool apply_sec,
      std::vector<double>* raw_out) const;

  ptm_config config_;
  nn::seq_regressor attention_net_;
  nn::mlp mlp_net_;
  nn::min_max_scaler feature_scaler_;
  nn::target_scaler target_scaler_;
  std::array<sec_table, 5> sec_;  // indexed by des::scheduler_kind
  bool trained_ = false;
  // Resolved once against config_.sink (null handles without a sink).
  // Mutable: recording is thread-safe and leaves the model unchanged, so
  // const predict may record.
  mutable obs::gauge_handle workspace_bytes_;    // nn.workspace_bytes
  mutable obs::counter_handle sec_corrections_;  // sec.corrections
  mutable obs::histogram_handle sec_relative_;   // sec.relative_correction
  mutable obs::histogram_handle kept_columns_;   // ptm.kept_input_columns
};

}  // namespace dqn::core

#include "core/ptm.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <istream>
#include <numeric>
#include <ostream>
#include <stdexcept>

#include "util/check.hpp"

#include "core/features.hpp"
#include "obs/scoped_timer.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace dqn::core {

const char* to_string(ptm_arch arch) noexcept {
  switch (arch) {
    case ptm_arch::mlp: return "mlp";
    case ptm_arch::attention: return "attention";
  }
  return "?";
}

std::size_t ptm_dataset::count() const {
  if (time_steps == 0) return 0;
  return windows.size() / (time_steps * feature_count);
}

void ptm_dataset::append(const ptm_dataset& other) {
  if (time_steps == 0) time_steps = other.time_steps;
  DQN_ENSURE(time_steps == other.time_steps,
             "ptm_dataset::append: time_steps mismatch: ", time_steps, " vs ",
             other.time_steps);
  windows.insert(windows.end(), other.windows.begin(), other.windows.end());
  targets.insert(targets.end(), other.targets.begin(), other.targets.end());
}

ptm_model::ptm_model(const ptm_config& config) : config_{config} {
  util::rng rng{config.seed};
  if (config_.arch == ptm_arch::attention) {
    nn::seq_regressor_config seq;
    seq.input_dim = feature_count;
    seq.lstm_hidden = config_.lstm_hidden;
    seq.heads = config_.heads;
    seq.key_dim = config_.key_dim;
    seq.value_dim = config_.value_dim;
    seq.attention_out = config_.attention_out;
    attention_net_ = nn::seq_regressor{seq, rng};
  } else {
    std::vector<std::size_t> dims;
    dims.push_back(config_.time_steps * feature_count);
    for (std::size_t h : config_.mlp_hidden) dims.push_back(h);
    dims.push_back(1);
    mlp_net_ = nn::mlp{dims, nn::activation::tanh, rng};
  }
  // predict's metric handles: resolved once, here, where the sink is
  // fixed, so no predict call takes the registry's name lock.
  if (config_.sink != nullptr) {
    workspace_bytes_ = config_.sink->gauge_handle_for("nn.workspace_bytes");
    sec_corrections_ = config_.sink->counter_handle_for("sec.corrections");
    sec_relative_ =
        config_.sink->histogram_handle_for("sec.relative_correction");
    kept_columns_ =
        config_.sink->histogram_handle_for("ptm.kept_input_columns");
  }
}

namespace {

// Windows per MLP forward in predict_rows: one chunk's activations (96 + 48
// doubles a window for the paper's MLP) stay in a core's L2, and a worker's
// arena stops growing with its longest queue.
constexpr std::size_t forward_chunk_rows = 512;

// Copies raw feature rows into `out`, mapping the heavy-tailed features
// through x -> log1p(x / scale) (features.hpp) on the way.
void log_rows_into(std::span<const double> rows, double* out) {
  for (std::size_t r = 0; r < rows.size(); r += feature_count)
    for (std::size_t f = 0; f < feature_count; ++f) {
      const double scale = feature_log_scale[f];
      out[r + f] = scale > 0 ? std::log1p(rows[r + f] / scale) : rows[r + f];
    }
}

// Residual learning: the regression target is the *deviation* of the sojourn
// from the class-resolved work-conserving bound W_k (the unfinished work of
// the packet's own-and-higher classes). W_k is exactly the FIFO wait under
// FIFO and the non-preemptive SP wait ignoring future arrivals under SP, so
// the DNN spends its capacity only on the genuinely intractable part
// (future-arrival preemption, weighted interleaving). asinh gives a
// symmetric log-like transform for the signed residual.
double residual_to_net(double sojourn_seconds, double prior_bound) {
  return std::asinh((sojourn_seconds - prior_bound) / sojourn_log_scale);
}

double residual_from_net(double net_value, double prior_bound) {
  return prior_bound + std::sinh(net_value) * sojourn_log_scale;
}

// Raw features of window i's final packet, where consecutive windows start
// `stride` doubles apart in `raw`: time_steps * feature_count for
// materialized windows, feature_count for feature rows (one row per window).
const double* final_row(std::span<const double> raw, std::size_t i,
                        std::size_t stride) {
  return raw.data() + (i + 1) * stride - feature_count;
}

// The prior bound of a window is a raw feature of its final time step.
double prior_bound(const double* row) { return row[f_own_class_work]; }

// Scheduler kind of a window, decoded from the one-hot of its final step.
std::size_t scheduler_of(const double* row) {
  for (std::size_t f = f_sched_fifo; f <= f_sched_wfq; ++f)
    if (row[f] > 0.5) return f - f_sched_fifo;
  return 0;  // default to FIFO if the one-hot is absent
}

// Compacts `rows` scaled feature rows in place to the columns holding a
// value other than ±0.0 in some row, lists those columns ascending in
// `kept` and returns how many there are. Row r's kept values end up at
// scaled[r * count, (r + 1) * count). The copy runs forward, and each value
// moves to an index no larger than its own, so none is overwritten before
// it is copied.
std::size_t compact_nonzero_columns(
    double* scaled, std::size_t rows,
    std::array<std::size_t, feature_count>& kept) {
  constexpr std::uint32_t all = (std::uint32_t{1} << feature_count) - 1;
  std::uint32_t nonzero = 0;
  for (std::size_t r = 0; r < rows && nonzero != all; ++r)
    for (std::size_t f = 0; f < feature_count; ++f)
      nonzero |=
          static_cast<std::uint32_t>(scaled[r * feature_count + f] != 0.0)
          << f;
  std::size_t count = 0;
  for (std::size_t f = 0; f < feature_count; ++f)
    if ((nonzero >> f) & 1U) kept[count++] = f;
  if (count < feature_count)
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t j = 0; j < count; ++j)
        scaled[r * count + j] = scaled[r * feature_count + kept[j]];
  return count;
}

}  // namespace

void ptm_model::scale_rows_into(std::span<const double> rows,
                                double* out) const {
  log_rows_into(rows, out);
  feature_scaler_.transform(std::span<double>{out, rows.size()});
}

nn::seq_batch ptm_model::scale_windows(std::span<const double> windows) const {
  const std::size_t window_size = config_.time_steps * feature_count;
  DQN_CHECK(windows.size() % window_size == 0,
            "ptm_model: windows size ", windows.size(),
            " not a multiple of window ", window_size);
  nn::seq_batch batch{windows.size() / window_size, config_.time_steps,
                      feature_count};
  scale_rows_into(windows, batch.data().data());
  return batch;
}

training_report ptm_model::train(
    const ptm_dataset& data, const std::function<void(std::size_t, double)>& on_epoch) {
  DQN_ENSURE(data.time_steps == config_.time_steps,
             "ptm_model::train: dataset has time_steps=", data.time_steps,
             ", model wants ", config_.time_steps);
  const std::size_t n = data.count();
  DQN_ENSURE(n > 0 && data.targets.size() == n,
             "ptm_model::train: empty or inconsistent dataset (", n,
             " windows, ", data.targets.size(), " targets)");

  util::stopwatch watch;
  const std::size_t window_size = config_.time_steps * feature_count;
  nn::seq_batch all{n, config_.time_steps, feature_count};
  log_rows_into(std::span<const double>{data.windows}.first(n * window_size),
                all.data().data());
  feature_scaler_.fit(all);
  feature_scaler_.transform(all);
  {
    std::vector<double> net_targets(data.targets.size());
    for (std::size_t i = 0; i < data.targets.size(); ++i)
      net_targets[i] = residual_to_net(
          data.targets[i],
          prior_bound(final_row(data.windows, i, window_size)));
    target_scaler_.fit(net_targets);
  }

  nn::param_list params;
  if (config_.arch == ptm_arch::attention)
    attention_net_.collect_params(params);
  else
    mlp_net_.collect_params(params);
  nn::adam optimizer{params, config_.adam};

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::rng shuffle_rng{util::derive_seed(config_.seed, 0x5ec5)};

  training_report report;
  // Per-batch telemetry through pre-resolved handles: the batch loop is the
  // training hot path, so it must not take the registry's name lock.
  obs::counter_handle batches_handle;
  obs::histogram_handle batch_mse_handle;
  if (config_.sink != nullptr) {
    batches_handle = config_.sink->counter_handle_for("ptm.batches");
    batch_mse_handle = config_.sink->histogram_handle_for("ptm.batch_mse");
  }
  const std::size_t batch_size = std::min(config_.batch_size, n);
  // Batch staging buffers hoisted out of the loops: every iteration reuses
  // the same allocations instead of constructing fresh tensors per batch.
  nn::seq_batch batch{batch_size, config_.time_steps, feature_count};
  nn::matrix targets{batch_size, 1};
  nn::matrix flat{batch_size, config_.time_steps * feature_count};
  nn::matrix sample_row{config_.time_steps, feature_count};
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    obs::scoped_timer epoch_timer{config_.sink, "ptm", "epoch", epoch};
    shuffle_rng.shuffle(order);
    double epoch_loss = 0;
    double grad_norm = 0;
    std::size_t batches = 0;
    for (std::size_t begin = 0; begin + batch_size <= n; begin += batch_size) {
      for (std::size_t b = 0; b < batch_size; ++b) {
        const std::size_t src = order[begin + b];
        all.sample_into(src, sample_row);
        batch.set_sample(b, sample_row);
        targets(b, 0) = target_scaler_.transform(residual_to_net(
            data.targets[src],
            prior_bound(final_row(data.windows, src, window_size))));
      }
      double loss = 0;
      if (config_.arch == ptm_arch::attention) {
        const nn::matrix pred = attention_net_.forward(batch);
        loss = attention_net_.backward_mse(pred, targets);
      } else {
        std::copy(batch.data().begin(), batch.data().end(), flat.data().begin());
        const nn::matrix pred = mlp_net_.forward(flat);
        nn::matrix grad{batch_size, 1};  // backward consumes it; cheap next to the GEMMs
        for (std::size_t b = 0; b < batch_size; ++b) {
          const double diff = pred(b, 0) - targets(b, 0);
          loss += diff * diff;
          grad(b, 0) = 2.0 * diff / static_cast<double>(batch_size);
        }
        loss /= static_cast<double>(batch_size);
        (void)mlp_net_.backward(grad);
      }
      if (config_.sink != nullptr && begin + 2 * batch_size > n) {
        // Gradient L2 norm of the epoch's final batch (pre-step, so the
        // grads are still the raw backward output) — the training-health
        // signal next to the loss curve.
        double grad_sq = 0;
        for (const auto& p : params)
          for (const double g : *p.grad) grad_sq += g * g;
        grad_norm = std::sqrt(grad_sq);
      }
      optimizer.step();
      epoch_loss += loss;
      ++batches;
      batches_handle.add();
      batch_mse_handle.observe(loss);
    }
    const double mse = batches > 0 ? epoch_loss / static_cast<double>(batches) : 0.0;
    report.epoch_mse.push_back(mse);
    if (config_.sink != nullptr) {
      epoch_timer.set_value(mse);
      config_.sink->observe("ptm.epoch_mse", mse);
      config_.sink->observe("ptm.grad_norm", grad_norm);
      config_.sink->gauge("ptm.last_mse", mse);
      config_.sink->count("ptm.epochs");
    }
    if (on_epoch) on_epoch(epoch, mse);
  }
  trained_ = true;
  report.train_seconds = watch.elapsed_seconds();
  return report;
}

std::vector<double> ptm_model::predict(std::span<const double> windows,
                                       bool apply_sec,
                                       std::vector<double>* raw_out) const {
  // One workspace per thread keeps this overload thread-safe (the documented
  // contract) while still running the zero-allocation forward path.
  thread_local nn::workspace ws;
  return predict(windows, ws, apply_sec, raw_out);
}

std::vector<double> ptm_model::predict(std::span<const double> windows,
                                       nn::workspace& ws, bool apply_sec,
                                       std::vector<double>* raw_out) const {
  if (!trained_) throw std::logic_error{"ptm_model::predict: model not trained"};
  const std::size_t window_size = config_.time_steps * feature_count;
  DQN_CHECK(windows.size() % window_size == 0,
            "ptm_model: windows size ", windows.size(),
            " not a multiple of window ", window_size);
  ws.reset();
  const std::size_t n = windows.size() / window_size;
  nn::matrix& scaled = ws.take(n, window_size);
  scale_rows_into(windows, scaled.data().data());
  return to_sojourns(forward_scaled(scaled.data().data(), window_size, n, ws),
                     windows, window_size, ws, apply_sec, raw_out);
}

std::vector<double> ptm_model::predict_rows(
    std::span<const double> feature_rows, bool apply_sec,
    std::vector<double>* raw_out) const {
  thread_local nn::workspace ws;
  return predict_rows(feature_rows, ws, apply_sec, raw_out);
}

std::vector<double> ptm_model::predict_rows(
    std::span<const double> feature_rows, nn::workspace& ws, bool apply_sec,
    std::vector<double>* raw_out) const {
  if (!trained_)
    throw std::logic_error{"ptm_model::predict_rows: model not trained"};
  DQN_ENSURE(feature_rows.size() % feature_count == 0,
             "ptm_model::predict_rows: ", feature_rows.size(),
             " values not a multiple of feature_count ", feature_count);
  ws.reset();
  // Scale each row once, behind time_steps - 1 copies of the first: window i
  // is then the contiguous span of scaled rows [i, i + time_steps), with the
  // same front padding make_windows gives.
  const std::size_t n = feature_rows.size() / feature_count;
  const std::size_t pad = n == 0 ? 0 : config_.time_steps - 1;
  nn::matrix& scaled = ws.take(pad + n, feature_count);
  double* const first = scaled.data().data() + pad * feature_count;
  scale_rows_into(feature_rows, first);
  for (std::size_t p = 0; p < pad; ++p)
    std::copy_n(first, feature_count, scaled.data().data() + p * feature_count);
  // Zero-column elision (MLP): a column that is ±0.0 in every scaled row of
  // the call, padding included, adds only exact zeros to the first GEMM. So
  // the rows are compacted to the other columns, window i becomes the
  // time_steps * count doubles at row i, and the first layer reads only
  // those columns' weight rows; its column-elided forward keeps every bit
  // (nn/dense.hpp). On FIFO queues the other disciplines' one-hot bits and
  // the class-work features are such columns.
  //
  // The MLP runs over chunks of at most forward_chunk_rows windows, and each
  // chunk reuses the previous one's workspace slots, so the arena holds one
  // chunk's activations whatever the queue's length. Output row i reads only
  // window i, and every GEMM backend sums k in ascending order for each
  // output element, so the chunking changes no bit.
  std::size_t count = feature_count;
  const nn::matrix* pred = nullptr;
  if (config_.arch == ptm_arch::mlp) {
    std::array<std::size_t, feature_count> kept{};
    count = compact_nonzero_columns(scaled.data().data(), pad + n, kept);
    const std::span<std::size_t> w_rows =
        ws.take_indices(config_.time_steps * count);
    for (std::size_t t = 0; t < config_.time_steps; ++t)
      for (std::size_t j = 0; j < count; ++j)
        w_rows[t * count + j] = t * feature_count + kept[j];
    const std::size_t out_dim = mlp_net_.out_dim();
    nn::matrix& all = ws.take(n, out_dim);
    const nn::workspace::marker chunk_slots = ws.mark();
    for (std::size_t first_row = 0; first_row < n;
         first_row += forward_chunk_rows) {
      const std::size_t rows = std::min(forward_chunk_rows, n - first_row);
      const nn::matrix& chunk = mlp_net_.forward(
          scaled.data().data() + first_row * count, rows, count, w_rows, ws);
      std::copy_n(chunk.data().data(), rows * out_dim,
                  all.data().data() + first_row * out_dim);
      ws.rewind(chunk_slots);
    }
    pred = &all;
  } else {
    pred = &forward_scaled(scaled.data().data(), feature_count, n, ws);
  }
  if (n > 0) kept_columns_.observe(static_cast<double>(count));
  return to_sojourns(*pred, feature_rows, feature_count, ws, apply_sec,
                     raw_out);
}

const nn::matrix& ptm_model::forward_scaled(const double* scaled,
                                            std::size_t stride, std::size_t n,
                                            nn::workspace& ws) const {
  if (config_.arch == ptm_arch::mlp)
    // The first dense layer reads window i at scaled + i * stride in place.
    return mlp_net_.forward(scaled, n, stride, ws);
  const std::size_t window_size = config_.time_steps * feature_count;
  nn::seq_batch& batch = ws.take_seq(n, config_.time_steps, feature_count);
  for (std::size_t i = 0; i < n; ++i)
    std::copy_n(scaled + i * stride, window_size,
                batch.data().data() + i * window_size);
  return attention_net_.forward(batch, ws);
}

std::vector<double> ptm_model::to_sojourns(const nn::matrix& pred,
                                           std::span<const double> raw,
                                           std::size_t stride,
                                           const nn::workspace& ws,
                                           bool apply_sec,
                                           std::vector<double>* raw_out) const {
  const std::size_t n = raw.size() / stride;
  workspace_bytes_.set(static_cast<double>(ws.bytes()));
  std::vector<double> out(n);
  if (raw_out != nullptr) {
    raw_out->clear();
    raw_out->resize(n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double* last = final_row(raw, i, stride);
    // Clamp to (slightly beyond) the training range: scaled outputs past it
    // are extrapolation noise that the inverse transform would amplify.
    double y = std::clamp(pred(i, 0), 0.0, 1.0);
    y = residual_from_net(target_scaler_.inverse(y), prior_bound(last));
    if (raw_out != nullptr) (*raw_out)[i] = std::max(0.0, y);
    if (apply_sec) {
      const auto& table = sec_[scheduler_of(last)];
      if (table.fitted()) {
        const double rel = table.relative_correction(y);
        if (rel != 0.0) {
          sec_corrections_.add();
          sec_relative_.observe(std::abs(rel));
          y = std::max(0.0, y * (1.0 - rel));
        }
      }
    }
    out[i] = std::max(0.0, y);  // sojourn times cannot be negative
  }
  return out;
}

std::vector<nn::matrix> ptm_model::attention_maps(std::span<const double> window) {
  if (config_.arch != ptm_arch::attention)
    throw std::logic_error{"attention_maps: PTM uses the MLP architecture"};
  if (!trained_) throw std::logic_error{"attention_maps: model not trained"};
  if (window.size() != config_.time_steps * feature_count)
    throw std::invalid_argument{"attention_maps: expected exactly one window"};
  const nn::seq_batch batch = scale_windows(window);
  (void)attention_net_.forward(batch);  // training-mode forward fills caches
  std::vector<nn::matrix> maps;
  for (std::size_t head = 0; head < config_.heads; ++head)
    maps.push_back(attention_net_.attention().attention_weights(0, head));
  return maps;
}

void ptm_model::fit_sec(const ptm_dataset& validation, double eps_fraction,
                        std::size_t min_points) {
  const auto predictions = predict(validation.windows, /*apply_sec=*/false);
  // Fit one table per scheduler kind: residual structure is
  // discipline-specific (Figure 6).
  std::array<std::vector<double>, 5> pred_by_kind;
  std::array<std::vector<double>, 5> truth_by_kind;
  const std::size_t window_size = config_.time_steps * feature_count;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    const std::size_t kind =
        scheduler_of(final_row(validation.windows, i, window_size));
    pred_by_kind[kind].push_back(predictions[i]);
    truth_by_kind[kind].push_back(validation.targets[i]);
  }
  for (std::size_t kind = 0; kind < sec_.size(); ++kind)
    sec_[kind].fit(pred_by_kind[kind], truth_by_kind[kind], eps_fraction,
                   min_points);
}

void ptm_model::save(std::ostream& out) const {
  const std::uint8_t arch = static_cast<std::uint8_t>(config_.arch);
  const std::uint64_t time_steps = config_.time_steps;
  const std::uint8_t is_trained = trained_ ? 1 : 0;
  out.write(reinterpret_cast<const char*>(&arch), sizeof arch);
  out.write(reinterpret_cast<const char*>(&time_steps), sizeof time_steps);
  out.write(reinterpret_cast<const char*>(&is_trained), sizeof is_trained);
  if (config_.arch == ptm_arch::attention)
    attention_net_.save(out);
  else
    mlp_net_.save(out);
  feature_scaler_.save(out);
  target_scaler_.save(out);
  for (const auto& table : sec_) table.save(out);
}

void ptm_model::load(std::istream& in) {
  std::uint8_t arch = 0, is_trained = 0;
  std::uint64_t time_steps = 0;
  in.read(reinterpret_cast<char*>(&arch), sizeof arch);
  in.read(reinterpret_cast<char*>(&time_steps), sizeof time_steps);
  in.read(reinterpret_cast<char*>(&is_trained), sizeof is_trained);
  if (!in) throw std::runtime_error{"ptm_model::load: truncated stream"};
  config_.arch = static_cast<ptm_arch>(arch);
  config_.time_steps = static_cast<std::size_t>(time_steps);
  if (config_.arch == ptm_arch::attention)
    attention_net_.load(in);
  else
    mlp_net_.load(in);
  feature_scaler_.load(in);
  target_scaler_.load(in);
  for (auto& table : sec_) table.load(in);
  trained_ = is_trained != 0;
}

}  // namespace dqn::core

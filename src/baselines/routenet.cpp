#include "baselines/routenet.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "baselines/constant_delay_replay.hpp"
#include "nn/adam.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/sink.hpp"
#include "stats/descriptive.hpp"
#include "stats/wasserstein.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace dqn::baselines {

routenet_estimator::routenet_estimator() = default;

std::vector<double> routenet_estimator::path_features(
    const topo::topology& topo, const topo::routing& routes,
    const traffic::flow_spec& flow, const std::vector<traffic::flow_spec>& flows,
    const std::vector<double>& flow_rates_pps, double mean_packet_size) {
  const auto hosts = topo.hosts();
  auto host_node = [&](std::int32_t index) {
    return hosts.at(static_cast<std::size_t>(index));
  };

  // Per-link traffic aggregation: the closed-form analogue of the link-state
  // message passing — every link's load is the sum of the matrix rates of
  // flows routed across it.
  std::vector<double> link_load_bps(topo.link_count(), 0.0);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const auto path = routes.flow_path(host_node(flows[f].src_host),
                                       host_node(flows[f].dst_host),
                                       flows[f].flow_id);
    const double bps = flow_rates_pps[f] * mean_packet_size * 8.0;
    for (std::size_t hop = 0; hop + 1 < path.size(); ++hop) {
      // Find the link used between path[hop] and path[hop+1] for this flow.
      const std::size_t port =
          routes.egress_port(path[hop], host_node(flows[f].dst_host),
                             flows[f].flow_id);
      link_load_bps[topo.peer_of(path[hop], port).link_index] += bps;
    }
  }

  const auto path = routes.flow_path(host_node(flow.src_host),
                                     host_node(flow.dst_host), flow.flow_id);
  double sum_util = 0, max_util = 0, min_bw = 0;
  std::size_t links_on_path = 0;
  for (std::size_t hop = 0; hop + 1 < path.size(); ++hop) {
    const std::size_t port =
        routes.egress_port(path[hop], host_node(flow.dst_host), flow.flow_id);
    const auto peer = topo.peer_of(path[hop], port);
    const auto& link = topo.link_at(peer.link_index);
    const double util = link_load_bps[peer.link_index] / link.bandwidth_bps;
    sum_util += util;
    max_util = std::max(max_util, util);
    min_bw = links_on_path == 0 ? link.bandwidth_bps
                                : std::min(min_bw, link.bandwidth_bps);
    ++links_on_path;
  }
  const std::size_t flow_index = [&] {
    for (std::size_t f = 0; f < flows.size(); ++f)
      if (flows[f].flow_id == flow.flow_id) return f;
    throw std::invalid_argument{"routenet: flow not in scenario"};
  }();

  return {
      flow_rates_pps[flow_index] * mean_packet_size * 8.0,  // flow rate, bps
      static_cast<double>(path.size() - 1),                 // hop count
      sum_util,
      max_util,
      sum_util / static_cast<double>(
          std::max<std::size_t>(links_on_path, 1)),  // mean utilization
      min_bw,
      mean_packet_size,
      static_cast<double>(flow.priority),
  };
}

std::vector<routenet_estimator::training_example> routenet_estimator::make_examples(
    const topo::topology& topo, const topo::routing& routes,
    const std::vector<traffic::flow_spec>& flows,
    const std::vector<double>& flow_rates_pps, double mean_packet_size,
    const des::run_result& truth) {
  if (flows.size() != flow_rates_pps.size())
    throw std::invalid_argument{"routenet: one rate per flow required"};
  const auto per_flow = des::per_flow_latencies(truth);
  std::vector<training_example> examples;
  for (const auto& flow : flows) {
    const auto it = per_flow.find(flow.flow_id);
    if (it == per_flow.end() || it->second.size() < 4) continue;
    training_example ex;
    ex.features =
        path_features(topo, routes, flow, flows, flow_rates_pps, mean_packet_size);
    const auto& lat = it->second;
    const auto jit = stats::jitter_series(lat);
    ex.kpis.avg_rtt = stats::mean(lat);
    ex.kpis.p99_rtt = stats::percentile(lat, 0.99);
    ex.kpis.avg_jitter = stats::mean(jit);
    ex.kpis.p99_jitter = stats::percentile(jit, 0.99);
    examples.push_back(std::move(ex));
  }
  return examples;
}

void routenet_estimator::train(const std::vector<training_example>& examples,
                               std::size_t epochs, std::uint64_t seed) {
  if (examples.size() < 4)
    throw std::invalid_argument{"routenet::train: need >= 4 examples"};
  util::rng rng{seed};
  net_ = nn::mlp{{feature_width(), 32, 16, 4}, nn::activation::tanh, rng};

  std::vector<double> flat_features;
  for (const auto& ex : examples)
    flat_features.insert(flat_features.end(), ex.features.begin(), ex.features.end());
  feature_scaler_.fit(flat_features, feature_width());

  std::array<std::vector<double>, 4> targets;
  for (const auto& ex : examples) {
    targets[0].push_back(ex.kpis.avg_rtt);
    targets[1].push_back(ex.kpis.p99_rtt);
    targets[2].push_back(ex.kpis.avg_jitter);
    targets[3].push_back(ex.kpis.p99_jitter);
  }
  for (std::size_t k = 0; k < 4; ++k) target_scalers_[k].fit(targets[k]);

  nn::param_list params;
  net_.collect_params(params);
  nn::adam optimizer{params, {}};

  const std::size_t n = examples.size();
  nn::matrix x{n, feature_width()};
  nn::matrix y{n, 4};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < feature_width(); ++f)
      x(i, f) = feature_scaler_.transform_one(f, examples[i].features[f]);
    for (std::size_t k = 0; k < 4; ++k)
      y(i, k) = target_scalers_[k].transform(targets[k][i]);
  }
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    const nn::matrix pred = net_.forward(x);
    nn::matrix grad{n, 4};
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t k = 0; k < 4; ++k)
        grad(i, k) = 2.0 * (pred(i, k) - y(i, k)) / static_cast<double>(n);
    (void)net_.backward(grad);
    optimizer.step();
  }
  trained_ = true;
}

path_kpis routenet_estimator::predict(const std::vector<double>& features) const {
  if (!trained_) throw std::logic_error{"routenet::predict: not trained"};
  if (features.size() != feature_width())
    throw std::invalid_argument{"routenet::predict: bad feature width"};
  nn::matrix x{1, feature_width()};
  for (std::size_t f = 0; f < feature_width(); ++f)
    x(0, f) = feature_scaler_.transform_one(f, features[f]);
  const nn::matrix y = net_.forward_const(x);
  path_kpis kpis;
  kpis.avg_rtt = std::max(0.0, target_scalers_[0].inverse(y(0, 0)));
  kpis.p99_rtt = std::max(0.0, target_scalers_[1].inverse(y(0, 1)));
  kpis.avg_jitter = std::max(0.0, target_scalers_[2].inverse(y(0, 2)));
  kpis.p99_jitter = std::max(0.0, target_scalers_[3].inverse(y(0, 3)));
  return kpis;
}

void routenet_estimator::set_scenario(const topo::topology& topo,
                                      const topo::routing& routes,
                                      std::vector<traffic::flow_spec> flows,
                                      std::vector<double> flow_rates_pps,
                                      double mean_packet_size) {
  if (flows.size() != flow_rates_pps.size())
    throw std::invalid_argument{"routenet::set_scenario: one rate per flow"};
  topo_ = &topo;
  routes_ = &routes;
  flows_ = std::move(flows);
  flow_rates_pps_ = std::move(flow_rates_pps);
  mean_packet_size_ = mean_packet_size;
}

des::run_result routenet_estimator::run(const des::run_request& request) {
  if (!trained_) throw std::logic_error{"routenet::run: not trained"};
  if (topo_ == nullptr)
    throw std::logic_error{
        "routenet::run: no scenario bound; call set_scenario first"};
  if (request.host_streams == nullptr)
    throw std::invalid_argument{"routenet::run: host_streams is null"};
  obs::scoped_timer timer{request.sink, "routenet", "run"};
  util::stopwatch watch;
  const auto kpis =
      predict_flows(*topo_, *routes_, flows_, flow_rates_pps_, mean_packet_size_);
  std::map<std::uint32_t, double> delays;
  for (const auto& [flow_id, kpi] : kpis) delays[flow_id] = kpi.avg_rtt;
  auto result = replay_constant_delays(*topo_, *request.host_streams,
                                       request.horizon, delays);
  result.wall_seconds = watch.elapsed_seconds();
  if (request.sink != nullptr)
    request.sink->count("routenet.deliveries",
                        static_cast<double>(result.deliveries.size()));
  return result;
}

std::map<std::uint32_t, path_kpis> routenet_estimator::predict_flows(
    const topo::topology& topo, const topo::routing& routes,
    const std::vector<traffic::flow_spec>& flows,
    const std::vector<double>& flow_rates_pps, double mean_packet_size) const {
  std::map<std::uint32_t, path_kpis> out;
  for (const auto& flow : flows)
    out[flow.flow_id] =
        predict(path_features(topo, routes, flow, flows, flow_rates_pps,
                              mean_packet_size));
  return out;
}

core::metric_comparison compare_routenet(
    const des::run_result& truth, const std::map<std::uint32_t, path_kpis>& predictions,
    double bucket_seconds, std::size_t min_packets_per_bucket) {
  core::metric_samples t, p;
  for (const auto& [key, latencies] : core::bucketed_latencies(truth, bucket_seconds)) {
    if (latencies.size() < std::max<std::size_t>(min_packets_per_bucket, 2)) continue;
    const auto it = predictions.find(key.first);
    if (it == predictions.end()) continue;
    core::append_bucket_metrics(latencies, t);
    p.avg_rtt.push_back(it->second.avg_rtt);
    p.p99_rtt.push_back(it->second.p99_rtt);
    p.avg_jitter.push_back(it->second.avg_jitter);
    p.p99_jitter.push_back(it->second.p99_jitter);
  }
  if (t.avg_rtt.size() < 4)
    throw std::runtime_error{"compare_routenet: not enough paired samples"};
  core::metric_comparison cmp;
  cmp.samples = t.avg_rtt.size();
  cmp.w1_avg_rtt = stats::normalized_w1(p.avg_rtt, t.avg_rtt);
  cmp.w1_p99_rtt = stats::normalized_w1(p.p99_rtt, t.p99_rtt);
  cmp.w1_avg_jitter = stats::normalized_w1(p.avg_jitter, t.avg_jitter);
  cmp.w1_p99_jitter = stats::normalized_w1(p.p99_jitter, t.p99_jitter);
  // A constant per-flow prediction can have zero variance across samples of
  // a single flow; Pearson is computed over all flows jointly and can still
  // degenerate when the prediction set is constant — report rho = 0 then.
  auto safe_pearson = [](const std::vector<double>& a, const std::vector<double>& b) {
    try {
      return stats::pearson(a, b);
    } catch (const std::exception&) {
      return stats::correlation_result{};
    }
  };
  cmp.rho_avg_rtt = safe_pearson(p.avg_rtt, t.avg_rtt);
  cmp.rho_p99_rtt = safe_pearson(p.p99_rtt, t.p99_rtt);
  cmp.rho_avg_jitter = safe_pearson(p.avg_jitter, t.avg_jitter);
  cmp.rho_p99_jitter = safe_pearson(p.p99_jitter, t.p99_jitter);
  return cmp;
}

}  // namespace dqn::baselines

#include "baselines/mimicnet.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "nn/adam.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/sink.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace dqn::baselines {

namespace {

constexpr double rate_smoothing = 0.95;

// Fat-tree layer of a device, derived from the builder's naming scheme.
int layer_of(const topo::topology& topo, topo::node_id node) {
  const auto& name = topo.at(node).name;
  if (name.starts_with("tor")) return 0;
  if (name.starts_with("agg")) return 1;
  if (name.starts_with("core")) return 2;
  return -1;  // host or non-fat-tree device
}

// Per-flow packet-rate EMA keyed by flow, updated in send-time order.
class flow_rate_tracker {
 public:
  double update(std::uint32_t flow, double send_time) {
    auto& entry = flows_[flow];
    if (entry.has_prev) {
      const double iat = std::max(send_time - entry.prev_time, 1e-9);
      entry.ema = rate_smoothing * entry.ema + (1 - rate_smoothing) * (1.0 / iat);
    }
    entry.prev_time = send_time;
    entry.has_prev = true;
    return entry.ema;
  }

 private:
  struct state {
    double prev_time = 0;
    double ema = 0;
    bool has_prev = false;
  };
  std::unordered_map<std::uint32_t, state> flows_;
};

}  // namespace

void mimicnet_estimator::train_segment(
    segment_model& model, const std::vector<std::array<double, feature_width_>>& x,
    const std::vector<double>& y, std::size_t epochs, std::uint64_t seed) {
  if (x.size() < 8)
    throw std::invalid_argument{"mimicnet: too few segment training examples"};
  util::rng rng{seed};
  model.net = nn::mlp{{feature_width_, 24, 12, 1}, nn::activation::tanh, rng};
  std::vector<double> flat;
  flat.reserve(x.size() * feature_width_);
  for (const auto& row : x) flat.insert(flat.end(), row.begin(), row.end());
  model.features.fit(flat, feature_width_);
  model.target.fit(y);

  nn::param_list params;
  model.net.collect_params(params);
  nn::adam optimizer{params, {}};
  const std::size_t n = x.size();
  nn::matrix xin{n, feature_width_};
  nn::matrix yin{n, 1};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < feature_width_; ++f)
      xin(i, f) = model.features.transform_one(f, x[i][f]);
    yin(i, 0) = model.target.transform(y[i]);
  }
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    const nn::matrix pred = model.net.forward(xin);
    nn::matrix grad{n, 1};
    for (std::size_t i = 0; i < n; ++i)
      grad(i, 0) = 2.0 * (pred(i, 0) - yin(i, 0)) / static_cast<double>(n);
    (void)model.net.backward(grad);
    optimizer.step();
  }
}

double mimicnet_estimator::predict_segment(const segment_model& model,
                                           std::array<double, feature_width_> x) const {
  nn::matrix xin{1, feature_width_};
  for (std::size_t f = 0; f < feature_width_; ++f)
    xin(0, f) = model.features.transform_one(f, x[f]);
  const nn::matrix y = model.net.forward_const(xin);
  return std::max(0.0, model.target.inverse(y(0, 0)));
}

void mimicnet_estimator::train(const topo::topology& topo,
                               const des::run_result& reference, std::size_t epochs,
                               std::uint64_t seed) {
  if (reference.hops.empty())
    throw std::invalid_argument{"mimicnet::train: reference run has no hop records"};

  // Group the reference hops per packet, ordered along the path.
  std::unordered_map<std::uint64_t, std::vector<const des::hop_record*>> by_pid;
  for (const auto& hop : reference.hops) by_pid[hop.pid].push_back(&hop);
  // dqn-order-insensitive: each entry's hop list is sorted independently;
  // no cross-entry state is read or written, so visit order cannot matter.
  for (auto& [pid, hops] : by_pid)
    std::sort(hops.begin(), hops.end(),
              [](const des::hop_record* a, const des::hop_record* b) {
                return a->arrival < b->arrival;
              });

  // Per-flow send-rate EMA in send-time order.
  std::vector<const des::delivery_record*> deliveries;
  deliveries.reserve(reference.deliveries.size());
  for (const auto& d : reference.deliveries) deliveries.push_back(&d);
  std::sort(deliveries.begin(), deliveries.end(),
            [](const des::delivery_record* a, const des::delivery_record* b) {
              return a->send_time < b->send_time;
            });

  flow_rate_tracker tracker;
  std::vector<std::array<double, feature_width_>> up_x, core_x, down_x;
  std::vector<double> up_y, core_y, down_y;
  for (const auto* d : deliveries) {
    const double rate_ema = tracker.update(d->flow_id, d->send_time);
    const auto it = by_pid.find(d->pid);
    if (it == by_pid.end() || it->second.empty()) continue;
    const auto& hops = it->second;
    double up = 0, core = 0, down = 0;
    std::size_t up_hops = 0, core_hops = 0, down_hops = 0;
    // Before the apex layer: up; core layer: core; after: down.
    int apex = 0;
    for (const auto* h : hops) apex = std::max(apex, layer_of(topo, h->device));
    bool past_apex = false;
    for (const auto* h : hops) {
      const int layer = layer_of(topo, h->device);
      const double sojourn = h->departure - h->arrival;
      if (layer == 2) {
        core += sojourn;
        ++core_hops;
        past_apex = true;
      } else if (!past_apex && layer < apex) {
        up += sojourn;
        ++up_hops;
      } else if (!past_apex && layer == apex) {
        up += sojourn;
        ++up_hops;
        past_apex = true;
      } else {
        down += sojourn;
        ++down_hops;
      }
    }
    const double len = static_cast<double>(hops.front()->size_bytes);
    if (up_hops > 0) {
      up_x.push_back({len, rate_ema, static_cast<double>(up_hops)});
      up_y.push_back(up);
    }
    if (core_hops > 0) {
      core_x.push_back({len, rate_ema, static_cast<double>(core_hops)});
      core_y.push_back(core);
    }
    if (down_hops > 0) {
      down_x.push_back({len, rate_ema, static_cast<double>(down_hops)});
      down_y.push_back(down);
    }
  }

  train_segment(up_, up_x, up_y, epochs, util::derive_seed(seed, 1));
  if (!core_x.empty())
    train_segment(core_, core_x, core_y, epochs, util::derive_seed(seed, 2));
  if (!down_x.empty())
    train_segment(down_, down_x, down_y, epochs, util::derive_seed(seed, 3));
  trained_ = true;
}

des::run_result mimicnet_estimator::predict(
    const topo::topology& topo, const topo::routing& routes,
    const std::vector<traffic::packet_stream>& host_streams, double horizon) const {
  if (!trained_) throw std::logic_error{"mimicnet::predict: not trained"};
  const auto hosts = topo.hosts();
  if (host_streams.size() != hosts.size())
    throw std::invalid_argument{"mimicnet::predict: one stream per host"};

  // Flatten to send-time order for the EMA tracker.
  struct send_item {
    traffic::packet pkt;
    double time;
  };
  std::vector<send_item> sends;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    for (const auto& ev : host_streams[i]) {
      if (ev.time > horizon) break;
      traffic::packet pkt = ev.pkt;
      pkt.src_host = hosts[i];
      pkt.dst_host = hosts.at(static_cast<std::size_t>(pkt.dst_host));
      sends.push_back({pkt, ev.time});
    }
  }
  std::sort(sends.begin(), sends.end(),
            [](const send_item& a, const send_item& b) { return a.time < b.time; });

  flow_rate_tracker tracker;
  des::run_result result;
  result.deliveries.reserve(sends.size());
  for (const auto& item : sends) {
    const double rate_ema = tracker.update(item.pkt.flow_id, item.time);
    const auto path =
        routes.flow_path(item.pkt.src_host, item.pkt.dst_host, item.pkt.flow_id);
    const double len = static_cast<double>(item.pkt.size_bytes);

    // Exact link delays along the path (Eq. 5 per link).
    double link_delay = 0;
    std::size_t up_hops = 0, core_hops = 0, down_hops = 0;
    int apex = 0;
    for (const auto node : path) apex = std::max(apex, layer_of(topo, node));
    bool past_apex = false;
    for (std::size_t hop = 0; hop + 1 < path.size(); ++hop) {
      const std::size_t port =
          routes.egress_port(path[hop], item.pkt.dst_host, item.pkt.flow_id);
      const auto& link = topo.link_at(topo.peer_of(path[hop], port).link_index);
      link_delay += len * 8.0 / link.bandwidth_bps + link.propagation_delay;
      const int layer = layer_of(topo, path[hop]);
      if (layer < 0) continue;  // host NIC hop
      if (layer == 2) {
        ++core_hops;
        past_apex = true;
      } else if (!past_apex) {
        ++up_hops;
        if (layer == apex) past_apex = true;
      } else {
        ++down_hops;
      }
    }

    double queueing = 0;
    if (up_hops > 0)
      queueing += predict_segment(up_, {len, rate_ema, static_cast<double>(up_hops)});
    if (core_hops > 0)
      queueing +=
          predict_segment(core_, {len, rate_ema, static_cast<double>(core_hops)});
    if (down_hops > 0)
      queueing +=
          predict_segment(down_, {len, rate_ema, static_cast<double>(down_hops)});

    des::delivery_record d;
    d.pid = item.pkt.pid;
    d.flow_id = item.pkt.flow_id;
    d.src = item.pkt.src_host;
    d.dst = item.pkt.dst_host;
    d.send_time = item.time;
    d.delivery_time = item.time + link_delay + queueing;
    result.deliveries.push_back(d);
  }
  std::sort(result.deliveries.begin(), result.deliveries.end(),
            [](const des::delivery_record& a, const des::delivery_record& b) {
              return a.delivery_time < b.delivery_time;
            });
  return result;
}

void mimicnet_estimator::set_target(const topo::topology& topo,
                                    const topo::routing& routes) {
  target_topo_ = &topo;
  target_routes_ = &routes;
}

des::run_result mimicnet_estimator::run(const des::run_request& request) {
  if (!trained_) throw std::logic_error{"mimicnet::run: not trained"};
  if (target_topo_ == nullptr)
    throw std::logic_error{
        "mimicnet::run: no target network bound; call set_target first"};
  if (request.host_streams == nullptr)
    throw std::invalid_argument{"mimicnet::run: host_streams is null"};
  obs::scoped_timer timer{request.sink, "mimicnet", "run"};
  util::stopwatch watch;
  auto result = predict(*target_topo_, *target_routes_, *request.host_streams,
                        request.horizon);
  result.wall_seconds = watch.elapsed_seconds();
  if (request.sink != nullptr)
    request.sink->count("mimicnet.deliveries",
                        static_cast<double>(result.deliveries.size()));
  return result;
}

}  // namespace dqn::baselines

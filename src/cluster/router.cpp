#include "cluster/router.hpp"

#include <chrono>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "net/client.hpp"
#include "serve/deployment_gate.hpp"
#include "util/check.hpp"

namespace anchor::cluster {

namespace {

bool canary_terminal(serve::CanaryState s) {
  return s == serve::CanaryState::kPromoted ||
         s == serve::CanaryState::kRolledBack ||
         s == serve::CanaryState::kAborted ||
         s == serve::CanaryState::kOfflineRejected;
}

}  // namespace

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      windowed_(config_.windowed),
      slo_(config_.slo),
      frames_(config_.port, config_.poll_interval_ms, config_.io_timeout_ms,
              obs::TraceStage::kRouterRecv,
              std::bind_front(&Router::dispatch, this)) {
  // Fail at construction, not at the first connection: an empty map
  // could never serve a request.
  ANCHOR_CHECK_MSG(config_.map.num_shards() > 0,
                   "Router needs a non-empty ShardMap");
  health_ = std::make_shared<ClusterHealth>(config_.map);
  hedge_ = std::make_shared<HedgePolicy>(config_.map.num_shards(),
                                         config_.hedge_policy);
  counters_ = std::make_shared<ClusterCounters>();
  if (config_.hot_key_capacity != 0) {
    obs::SpaceSavingSketch::Config sketch;
    sketch.capacity = config_.hot_key_capacity;
    obs::RangeHeatMap::Config heat;
    heat.row_begin = 0;
    heat.row_end = config_.map.total_rows();
    heat.buckets = config_.heat_buckets != 0 ? config_.heat_buckets : 1;
    load_ = std::make_unique<obs::KeyLoadRecorder>(sketch, heat);
  }
  ClusterConfig cc_config;
  cc_config.map = config_.map;
  cc_config.io_timeout_ms = config_.backend_io_timeout_ms;
  cc_config.max_attempts = config_.max_attempts;
  cc_config.hedge = config_.hedge;
  // The pooled clients all record into the router's shared windowed ring
  // and global-id key-load recorders (both thread-safe).
  cc_config.windowed = &windowed_;
  cc_config.load = load_.get();
  // hedge_ is shared even when hedging is off (ClusterConfig::hedge
  // gates the behavior): the per-shard RTT histograms are still the
  // router's latency signal worth recording.
  pool_ = std::make_unique<ClusterClientPool>(
      std::max<std::size_t>(config_.pool_size, 1), cc_config, health_,
      hedge_, counters_);
  rollout_.shards.assign(config_.map.num_shards(), {});
  register_metrics();
}

void Router::register_metrics() {
  requests_total_ = &metrics_.counter(
      "anchor_router_requests_total",
      "Request frames dispatched by the router (all types)");
  lookups_total_ = &metrics_.counter(
      "anchor_router_lookups_total",
      "Scatter-gather lookups executed (ids + words)");
  degraded_total_ = &metrics_.counter(
      "anchor_router_degraded_lookups_total",
      "Lookups that returned at least one degraded (zeroed+flagged) row");
  lookup_latency_ = &metrics_.histogram(
      "anchor_router_lookup_latency_us",
      "End-to-end scatter-gather lookup latency as the router sees it "
      "(microseconds)");
  topk_total_ = &metrics_.counter(
      "anchor_router_topk_total",
      "Cluster TOPK searches scatter-gathered and merged by the router");
  topk_partial_ = &metrics_.counter(
      "anchor_router_topk_partial_total",
      "TOPK searches merged from fewer than all shards (partial flag set)");
  topk_latency_ = &metrics_.histogram(
      "anchor_router_topk_latency_us",
      "End-to-end scatter-gather TOPK latency as the router sees it "
      "(microseconds)");
  metrics_.on_collect([this](obs::MetricsRegistry& r) {
    r.gauge("anchor_router_shards_alive",
            "Shards with at least one live replica")
        .set(static_cast<double>(health_->alive()));
    r.gauge("anchor_router_shards_total", "Shards in the shard map")
        .set(static_cast<double>(config_.map.num_shards()));
    r.gauge("anchor_router_replicas_alive",
            "Backend replicas currently marked healthy")
        .set(static_cast<double>(health_->replicas_alive()));
    r.gauge("anchor_router_replicas_total",
            "Backend replicas across all shards")
        .set(static_cast<double>(health_->replicas_total()));
    // Availability counters the pooled clients bump on the data plane.
    r.counter("anchor_router_hedges_total",
              "Hedge sub-requests sent to a second replica")
        .set(counters_->hedges.load(std::memory_order_relaxed));
    r.counter("anchor_router_hedge_wins_total",
              "Hedged replica answered before the straggler")
        .set(counters_->hedge_wins.load(std::memory_order_relaxed));
    r.counter("anchor_router_retries_total",
              "Lookup sub-request re-attempts after a replica failure")
        .set(counters_->retries.load(std::memory_order_relaxed));
    r.counter("anchor_router_failovers_total",
              "Sub-requests moved to a different replica than first chosen")
        .set(counters_->failovers.load(std::memory_order_relaxed));
    // Per-replica health and per-shard hedge delay, labeled series.
    for (std::size_t b = 0; b < config_.map.num_shards(); ++b) {
      const ShardSpec& spec = config_.map.shard(b);
      for (std::size_t rep = 0; rep < spec.num_replicas(); ++rep) {
        r.gauge("anchor_router_replica_up{shard=\"" + std::to_string(b) +
                    "\",replica=\"" +
                    obs::escape_label_value(spec.address(rep)) + "\"}",
                "1 = replica marked healthy, 0 = down")
            .set(health_->healthy(b, rep) ? 1.0 : 0.0);
      }
      r.gauge("anchor_router_hedge_delay_us{shard=\"" + std::to_string(b) +
                  "\"}",
              "Current hedge delay: p99 of the shard's merged RTT "
              "histogram x multiplier, clamped (default until "
              "min_samples)")
          .set(hedge_->hedge_delay_us(b));
    }
    // RolloutState numeric: 0 idle, 1 running, 2 completed, 3 rolled
    // back, 4 aborted (net/wire.hpp enum order).
    r.gauge("anchor_router_rollout_state",
            "Coordinated rollout state (0=idle 1=running 2=completed "
            "3=rolled_back 4=aborted)")
        .set(static_cast<double>(
            static_cast<int>(rollout_status().state)));
    r.counter("anchor_trace_spans_total",
              "Trace spans recorded into this process's span ring")
        .set(obs::Tracer::instance().spans_recorded());
  });
  // The router's own windowed plane: rolling lookup rates, SLO burn, and
  // global-id heavy hitters (label-swap discipline as in net::Server).
  auto last_top = std::make_shared<std::vector<std::string>>();
  metrics_.on_collect([this, last_top](obs::MetricsRegistry& r) {
    const obs::WindowedSnapshot w = windowed_.snapshot();
    r.gauge("anchor_router_window_qps_10s",
            "Cluster lookups/s over the last 10 s")
        .set(w.qps(10'000'000ull));
    r.gauge("anchor_router_window_qps_1m",
            "Cluster lookups/s over the last 60 s")
        .set(w.qps(60'000'000ull));
    r.gauge("anchor_router_window_error_rate_1m",
            "Degraded-lookup fraction over the last 60 s")
        .set(w.error_rate(60'000'000ull));
    r.gauge("anchor_router_window_p99_us_1m",
            "Scatter-gather p99 latency (µs) over the last 60 s")
        .set(w.latency_in(60'000'000ull).quantile(0.99));
    const obs::SloState slo = slo_.evaluate(w);
    r.gauge("anchor_router_slo_burn_short",
            "SLO burn rate over the short window (1.0 = exactly on budget)")
        .set(slo.short_burn);
    r.gauge("anchor_router_slo_burn_long",
            "SLO burn rate over the long window")
        .set(slo.long_burn);
    r.gauge("anchor_router_slo_alert_state",
            "Multi-window burn-rate alert (0 ok, 1 warn, 2 page)")
        .set(static_cast<double>(slo.alert));
    if (load_ != nullptr) {
      const obs::SketchSnapshot sketch = load_->sketch.snapshot();
      r.counter("anchor_router_key_load_records_total",
                "Global key occurrences offered to the router's sketch")
          .set(sketch.total);
      constexpr std::size_t kExportRanks = 8;
      const std::vector<obs::HeavyHitter> top = sketch.top(kExportRanks);
      last_top->resize(kExportRanks);
      for (std::size_t rank = 0; rank < kExportRanks; ++rank) {
        std::string name;
        if (rank < top.size()) {
          name = "anchor_router_top_key_count{rank=\"" +
                 std::to_string(rank) + "\",id=\"" +
                 std::to_string(top[rank].key) + "\"}";
        }
        if ((*last_top)[rank] != name && !(*last_top)[rank].empty()) {
          r.gauge((*last_top)[rank],
                  "Sketch count of the rank-N hottest global key")
              .set(0.0);
        }
        (*last_top)[rank] = name;
        if (!name.empty()) {
          r.gauge(name, "Sketch count of the rank-N hottest global key")
              .set(static_cast<double>(top[rank].count));
        }
      }
      const obs::HeatMapSnapshot heat = load_->heat.snapshot();
      std::size_t populated = 0;
      for (const obs::HeatRange& range : heat.ranges) {
        for (std::size_t b = 0; b < range.buckets.size(); ++b) {
          if (range.buckets[b] == 0) continue;
          ++populated;
          r.counter("anchor_router_heat_bucket_total{bucket=\"" +
                        std::to_string(b) + "\"}",
                    "Lookups landing in this global id-range bucket")
              .set(range.buckets[b]);
        }
      }
      r.gauge("anchor_router_heat_buckets_populated",
              "Router heat-map buckets that have recorded any load")
          .set(static_cast<double>(populated));
    }
  });
}

Router::~Router() { stop(); }

void Router::run() {
  start_probe();
  frames_.run();
}

void Router::start() {
  start_probe();
  frames_.start();
}

void Router::stop() {
  rollout_abort_.store(true, std::memory_order_release);
  frames_.stop();
  if (probe_thread_.joinable()) probe_thread_.join();
  // The rollout thread is replaced only under rollout_mu_ while not
  // running, so joining the current handle here races nothing.
  std::thread rollout;
  {
    std::lock_guard<std::mutex> lock(rollout_mu_);
    rollout.swap(rollout_thread_);
  }
  if (rollout.joinable()) rollout.join();
}

void Router::start_probe() {
  if (config_.probe_interval_ms > 0 && !probe_thread_.joinable()) {
    probe_thread_ = std::thread([this] { probe_loop(); });
  }
}

void Router::probe_loop() {
  // First sweep runs immediately so a router started against a dead
  // backend knows within one probe, not one interval. Probes are per
  // REPLICA: one dead member of a replica set must not take the shard's
  // live members out of rotation.
  while (!frames_.stopping()) {
    for (std::size_t b = 0; b < config_.map.num_shards(); ++b) {
      const ShardSpec& spec = config_.map.shard(b);
      for (std::size_t rep = 0; rep < spec.num_replicas(); ++rep) {
        if (frames_.stopping()) return;
        const Endpoint& ep = spec.replica(rep);
        health_->mark(b, rep,
                      ClusterClient::probe(ep.host, ep.port,
                                           config_.backend_io_timeout_ms));
      }
    }
    // Stop-responsive sleep between sweeps.
    for (int waited = 0;
         waited < config_.probe_interval_ms &&
         !frames_.stopping();
         waited += 10) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

bool Router::dispatch(net::TcpStream& stream, net::MsgType type,
                      const std::vector<std::uint8_t>& payload,
                      const obs::TraceContext& trace) {
  net::WireReader reader(payload);
  net::WireWriter reply;
  requests_total_->inc();
  // Borrows a pooled client, runs one scatter-gather lookup on it (timed
  // into the router's latency histogram, lookup/degraded counters
  // maintained), releases the slot BEFORE the reply is written back —
  // a slow client draining its reply must not hold a pool slot.
  const auto timed_lookup = [&](const auto& body) {
    const auto start = std::chrono::steady_clock::now();
    pool_->with_client([&](ClusterClient& cc) {
      if (trace.sampled()) cc.set_trace(trace);
      body(cc);
      if (cc.last_degraded()) degraded_total_->inc();
    });
    lookups_total_->inc();
    lookup_latency_->record(std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - start)
                                .count());
  };
  switch (type) {
    case net::MsgType::kLookupIds: {
      const std::uint32_t n = reader.u32();
      if (n > reader.remaining() / sizeof(std::uint64_t)) {
        throw net::WireError("id count exceeds payload");
      }
      std::vector<std::size_t> ids(n);
      for (auto& id : ids) id = static_cast<std::size_t>(reader.u64());
      reader.expect_done();
      // ClusterClient absorbs backend-side transport and framing errors
      // (they degrade rows), so whatever escapes here is a serving error
      // (e.g. reply would exceed the frame cap) or the client's own stream.
      serve::LookupResult merged;
      timed_lookup([&](ClusterClient& cc) { merged = cc.lookup_ids(ids); });
      net::encode_lookup_result(merged, &reply);
      net::write_frame(stream, net::MsgType::kLookupIdsReply, reply);
      return true;
    }
    case net::MsgType::kLookupWords: {
      const std::uint32_t n = reader.u32();
      if (n > reader.remaining() / sizeof(std::uint32_t)) {
        throw net::WireError("word count exceeds payload");
      }
      std::vector<std::string> words(n);
      for (auto& word : words) word = reader.str();
      reader.expect_done();
      serve::LookupResult merged;
      timed_lookup([&](ClusterClient& cc) { merged = cc.lookup_words(words); });
      net::encode_lookup_result(merged, &reply);
      net::write_frame(stream, net::MsgType::kLookupWordsReply, reply);
      return true;
    }
    case net::MsgType::kTopK: {
      // The router always answers FINAL mode: per-shard candidates are an
      // internal protocol between ClusterClient and the backends, and a
      // router-of-routers would need per-shard row offsets it doesn't
      // have. req.mode is therefore ignored here.
      net::TopKRequest req = net::decode_topk_request(&reader);
      reader.expect_done();
      ann::TopKResult merged;
      const auto start = std::chrono::steady_clock::now();
      pool_->with_client([&](ClusterClient& cc) {
        if (trace.sampled()) cc.set_trace(trace);
        switch (req.kind) {
          case net::kTopKKindId:
            merged = cc.topk_id(req.id, req.k, req.nprobe, req.rerank);
            break;
          case net::kTopKKindWord:
            merged = cc.topk_word(req.word, req.k, req.nprobe, req.rerank);
            break;
          default:
            merged = cc.topk_vector(req.vector, req.k, req.nprobe, req.rerank);
            break;
        }
      });
      topk_total_->inc();
      if (merged.flags & ann::kTopKFlagPartial) topk_partial_->inc();
      topk_latency_->record(std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - start)
                                .count());
      net::encode_topk_result(merged, &reply);
      net::write_frame(stream, net::MsgType::kTopKReply, reply);
      return true;
    }
    case net::MsgType::kMetrics: {
      reader.expect_done();
      net::encode_metrics_report(metrics_.snapshot(), &reply);
      net::write_frame(stream, net::MsgType::kMetricsReply, reply);
      return true;
    }
    case net::MsgType::kStats: {
      reader.expect_done();
      const ClusterStatsReport agg =
          pool_->with_client([](ClusterClient& cc) { return cc.stats(); });
      net::encode_server_stats(agg.aggregate, &reply);
      net::write_frame(stream, net::MsgType::kStatsReply, reply);
      return true;
    }
    case net::MsgType::kHeat: {
      reader.expect_done();
      // Pure backend merge, lifted to global id space by the borrowed
      // client: the reply is bit-identical to a client merging the
      // backends' own HEAT replies itself (pinned by cluster_test). The
      // router's own windowed/key-load view is deliberately NOT mixed in
      // — it is exported via this process's Prometheus plane instead.
      const net::HeatReport fleet =
          pool_->with_client([](ClusterClient& cc) { return cc.heat(); });
      net::encode_heat_report(fleet, &reply);
      net::write_frame(stream, net::MsgType::kHeatReply, reply);
      return true;
    }
    case net::MsgType::kPing: {
      reader.expect_done();
      net::write_frame(stream, net::MsgType::kPong, reply);
      return true;
    }
    case net::MsgType::kShardMap: {
      reader.expect_done();
      reply.str(config_.map.serialize());
      net::write_frame(stream, net::MsgType::kShardMapReply, reply);
      return true;
    }
    case net::MsgType::kRolloutStart: {
      const std::string candidate = reader.str();
      const std::uint8_t mode = reader.u8();
      const double fraction = reader.f64();
      const double shadow_rate = reader.f64();
      reader.expect_done();
      const std::string error =
          start_rollout(candidate, mode, fraction, shadow_rate);
      if (!error.empty()) throw std::runtime_error(error);
      net::encode_rollout_status(rollout_status(), &reply);
      net::write_frame(stream, net::MsgType::kRolloutStartReply, reply);
      return true;
    }
    case net::MsgType::kRolloutStatus: {
      reader.expect_done();
      net::encode_rollout_status(rollout_status(), &reply);
      net::write_frame(stream, net::MsgType::kRolloutStatusReply, reply);
      return true;
    }
    case net::MsgType::kRolloutAbort: {
      // Drain byte optional, mirroring kCanaryAbort. The abort itself is
      // observed by the rollout thread between shards / canary polls; the
      // reply reports the state at this instant (poll for terminal).
      const bool drain = reader.remaining() > 0 && reader.u8() != 0;
      reader.expect_done();
      (void)drain;  // the rollout thread always drains in-flight canaries
      rollout_abort_.store(true, std::memory_order_release);
      net::encode_rollout_status(rollout_status(), &reply);
      net::write_frame(stream, net::MsgType::kRolloutAbortReply, reply);
      return true;
    }
    case net::MsgType::kTryPromote: {
      reader.str();
      if (reader.remaining() > 0) reader.u8();  // optional force byte
      reader.expect_done();
      throw std::runtime_error(
          "anchor_router does not serve single-shard promotes; use "
          "ROLLOUT_START for a coordinated shard-by-shard rollout");
    }
    case net::MsgType::kCanaryStart:
    case net::MsgType::kCanaryStatus:
    case net::MsgType::kCanaryAbort:
      throw std::runtime_error(
          "canaries run per-shard behind the router; start one through "
          "ROLLOUT_START mode 1 (canary), or address a backend directly");
    case net::MsgType::kShutdown: {
      reader.expect_done();
      if (config_.forward_shutdown) pool_->shutdown_backends();
      frames_.request_shutdown();
      net::write_frame(stream, net::MsgType::kShutdownReply, reply);
      return false;
    }
    default:
      throw std::runtime_error("unknown request type " +
                               std::to_string(static_cast<int>(type)));
  }
}

// ---- rollout -----------------------------------------------------------

net::RolloutStatusReport Router::rollout_status() const {
  std::lock_guard<std::mutex> lock(rollout_mu_);
  return rollout_;
}

void Router::set_shard_state(std::size_t shard, net::ShardRolloutState state,
                             const std::string& detail) {
  std::lock_guard<std::mutex> lock(rollout_mu_);
  rollout_.shards[shard].state = state;
  rollout_.shards[shard].detail = detail;
}

void Router::finish_rollout(net::RolloutState terminal,
                            const std::string& candidate,
                            const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(rollout_mu_);
    rollout_.state = terminal;
    rollout_.reason = reason;
  }
  if (!config_.audit_log.empty()) {
    serve::GateReport row;
    row.new_version = candidate;
    row.decision = terminal == net::RolloutState::kCompleted
                       ? serve::GateDecision::kAdmit
                       : serve::GateDecision::kReject;
    row.promoted = terminal == net::RolloutState::kCompleted;
    row.reason = "rollout " + net::rollout_state_name(terminal) + ": " + reason;
    serve::append_audit_csv(config_.audit_log, row);
  }
}

void Router::audit_shard(std::size_t shard, const std::string& candidate,
                         bool promoted, const std::string& detail) {
  if (config_.audit_log.empty()) return;
  serve::GateReport row;
  row.new_version = candidate;
  row.decision =
      promoted ? serve::GateDecision::kAdmit : serve::GateDecision::kReject;
  row.promoted = promoted;
  std::ostringstream os;
  os << "rollout shard " << (shard + 1) << "/" << config_.map.num_shards()
     << " (" << config_.map.shard(shard).address() << "): " << detail;
  row.reason = os.str();
  serve::append_audit_csv(config_.audit_log, row);
}

std::string Router::start_rollout(const std::string& candidate,
                                  std::uint8_t mode, double fraction,
                                  double shadow_rate) {
  if (candidate.empty()) return "empty candidate version";
  if (mode > 1) {
    return "unknown rollout mode " + std::to_string(mode) +
           " (0 = gated, 1 = canary)";
  }
  std::thread previous;
  {
    std::lock_guard<std::mutex> lock(rollout_mu_);
    if (rollout_.state == net::RolloutState::kRunning) {
      return "a rollout is already running (candidate '" +
             rollout_.candidate + "'); abort it first";
    }
    previous.swap(rollout_thread_);  // terminal predecessor, join below
    rollout_ = net::RolloutStatusReport{};
    rollout_.state = net::RolloutState::kRunning;
    rollout_.candidate = candidate;
    rollout_.mode = mode;
    rollout_.map_version = config_.map.version();
    rollout_.shards.assign(config_.map.num_shards(), {});
    rollout_abort_.store(false, std::memory_order_release);
    rollout_thread_ = std::thread([this, candidate, mode, fraction,
                                   shadow_rate] {
      rollout_body(candidate, mode, fraction, shadow_rate);
    });
  }
  if (previous.joinable()) previous.join();
  return "";
}

void Router::rollout_body(std::string candidate, std::uint8_t mode,
                          double fraction, double shadow_rate) {
  const std::size_t n = config_.map.num_shards();
  // Incumbent displaced per promoted shard — what a rollback restores.
  std::vector<std::string> old_versions(n);
  std::vector<std::uint8_t> promoted(n, 0);

  const auto rollback_all = [&] {
    // Reverse order: the most recently flipped shard reverts first, so a
    // concurrent observer sees the promoted prefix only ever shrink.
    // EVERY replica of a promoted shard flipped, so every replica rolls
    // back — a best-effort sweep that keeps going past one dead replica
    // (it rejoins on the incumbent it never left... or gets caught by
    // the version check the next rollout runs).
    for (std::size_t j = n; j-- > 0;) {
      if (!promoted[j]) continue;
      const ShardSpec& spec = config_.map.shard(j);
      std::size_t reverted = 0;
      std::string first_error;
      for (std::size_t rep = 0; rep < spec.num_replicas(); ++rep) {
        const Endpoint& ep = spec.replica(rep);
        try {
          // Forced: the incumbent being restored was serving traffic
          // moments ago, and a near-threshold gate re-run in the reverse
          // direction must not be able to refuse the restore and strand
          // this replica on the rolled-back candidate.
          net::Client client(ep.host, ep.port,
                             config_.backend_io_timeout_ms);
          const serve::GateReport rr =
              client.try_promote(old_versions[j], /*force=*/true);
          if (rr.promoted) {
            ++reverted;
          } else if (first_error.empty()) {
            first_error = ep.address() + " refused: " + rr.reason;
          }
        } catch (const std::exception& e) {
          if (first_error.empty()) {
            first_error = ep.address() + ": " + e.what();
          }
        }
      }
      const bool complete = reverted == spec.num_replicas();
      std::string detail =
          "rolled back " + std::to_string(reverted) + "/" +
          std::to_string(spec.num_replicas()) + " replicas to '" +
          old_versions[j] + "'";
      if (!complete) detail += " (" + first_error + ")";
      set_shard_state(j,
                      complete ? net::ShardRolloutState::kRolledBack
                               : net::ShardRolloutState::kFailed,
                      detail);
      audit_shard(j, candidate, /*promoted=*/false, detail);
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    if (frames_.stopping() ||
        rollout_abort_.load(std::memory_order_acquire)) {
      rollback_all();
      finish_rollout(net::RolloutState::kAborted, candidate,
                     "rollout aborted by operator before shard " +
                         std::to_string(i + 1));
      return;
    }
    set_shard_state(i, net::ShardRolloutState::kInProgress,
                    mode == 0 ? "gated promote" : "canary");
    std::string detail;
    if (rollout_shard(i, candidate, mode, fraction, shadow_rate,
                      &old_versions[i], &detail)) {
      promoted[i] = 1;
      set_shard_state(i, net::ShardRolloutState::kPromoted, detail);
      audit_shard(i, candidate, /*promoted=*/true, detail);
      continue;
    }
    // Shard i said no (or died): stop here, restore the promoted prefix.
    set_shard_state(i, net::ShardRolloutState::kFailed, detail);
    audit_shard(i, candidate, /*promoted=*/false, detail);
    promoted[i] = 0;
    rollback_all();
    const bool aborted = rollout_abort_.load(std::memory_order_acquire);
    finish_rollout(aborted ? net::RolloutState::kAborted
                           : net::RolloutState::kRolledBack,
                   candidate,
                   "shard " + std::to_string(i + 1) + "/" +
                       std::to_string(n) + " (" +
                       config_.map.shard(i).address() + ") " +
                       (aborted ? "aborted" : "refused") + ": " + detail);
    return;
  }
  finish_rollout(net::RolloutState::kCompleted, candidate,
                 "candidate '" + candidate + "' live on all " +
                     std::to_string(n) + " shards");
}

bool Router::rollout_shard(std::size_t shard, const std::string& candidate,
                           std::uint8_t mode, double fraction,
                           double shadow_rate, std::string* old_version,
                           std::string* detail) {
  // A shard's replica set moves as ONE unit: the gate/canary decision
  // runs once, on the primary (replica 0) — its traffic sample and audit
  // trail speak for the identically-sliced followers — and only if it
  // admits does the candidate flip on every follower (forced: the
  // decision is already made; a follower re-running a near-threshold
  // gate must not be able to split the replica set across versions). A
  // follower that cannot flip fails the WHOLE shard, and the replicas
  // flipped so far revert, so a replica set is never left mixed.
  const ShardSpec& spec = config_.map.shard(shard);
  const Endpoint& primary = spec.replica(0);
  // Best-effort kill switch for the failure paths below: a canary left
  // RUNNING on a shard the rollout has given up on would keep measuring
  // and could later promote the candidate BY ITSELF — one shard quietly
  // converging on the version the rollout rolled back everywhere else.
  // A fresh connection (the original one may be the thing that broke).
  // Only fires for a canary THIS rollout started (never an operator's
  // pre-existing one, whose "already running" error lands in the catch
  // below with canary_started still false).
  bool canary_started = false;
  const auto abort_shard_canary = [&] {
    if (!canary_started) return;
    try {
      net::Client(primary.host, primary.port, config_.backend_io_timeout_ms)
          .canary_abort(/*drain=*/true);
    } catch (const std::exception&) {
      // Unreachable shard: nothing to abort from here; the canary dies
      // with the backend or decides on its own — surfaced via detail.
    }
  };
  // Phase 2 of the unit move: flip the followers, reverting this shard's
  // already-flipped replicas (primary included) if one refuses.
  const auto flip_followers = [&]() -> bool {
    for (std::size_t rep = 1; rep < spec.num_replicas(); ++rep) {
      const Endpoint& ep = spec.replica(rep);
      std::string error;
      try {
        net::Client follower(ep.host, ep.port,
                             config_.backend_io_timeout_ms);
        const serve::GateReport rr =
            follower.try_promote(candidate, /*force=*/true);
        if (rr.promoted) continue;
        error = "follower " + ep.address() + " refused: " + rr.reason;
      } catch (const std::exception& e) {
        error = "follower " + ep.address() + ": " + e.what();
        health_->mark(shard, rep, false);
      }
      // Revert primary + the followers flipped before this one.
      for (std::size_t back = 0; back < rep; ++back) {
        const Endpoint& bep = spec.replica(back);
        try {
          net::Client(bep.host, bep.port, config_.backend_io_timeout_ms)
              .try_promote(*old_version, /*force=*/true);
        } catch (const std::exception&) {
        }
      }
      *detail += "; " + error;
      return false;
    }
    if (spec.num_replicas() > 1) {
      *detail += " (+" + std::to_string(spec.num_replicas() - 1) +
                 " replicas)";
    }
    return true;
  };
  try {
    net::Client client(primary.host, primary.port,
                       config_.backend_io_timeout_ms);
    if (mode == 0) {
      const serve::GateReport rep = client.try_promote(candidate);
      *detail = rep.reason;
      if (!rep.promoted) return false;
      *old_version = rep.old_version;
      return flip_followers();
    }
    // Canary mode: start it, then poll this shard to its own terminal
    // decision — the per-shard Hoeffding machinery is exactly the single-
    // node canary, the router only sequences it.
    net::CanaryStatusReport st =
        client.canary_start(candidate, fraction, shadow_rate);
    canary_started = st.state == serve::CanaryState::kRunning;
    while (!canary_terminal(st.state) &&
           st.state != serve::CanaryState::kNone) {
      if (frames_.stopping() ||
          rollout_abort_.load(std::memory_order_acquire)) {
        st = client.canary_abort(/*drain=*/true);
        *detail = "canary aborted by rollout abort; " + st.online.summary();
        return false;
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config_.rollout_poll_ms));
      st = client.canary_status();
    }
    *detail =
        st.reason.empty() ? serve::canary_state_name(st.state) : st.reason;
    if (st.state == serve::CanaryState::kPromoted) {
      *old_version = st.incumbent;
      return flip_followers();
    }
    if (st.state == serve::CanaryState::kNone && st.offline.promoted) {
      // No incumbent on this shard: promoted outright without a canary.
      *old_version = st.offline.old_version;
      return flip_followers();
    }
    return false;
  } catch (const net::NetError& e) {
    *detail = e.what();
    // One fresh-connection abort attempt before declaring the shard
    // down: a single dropped reply must not orphan a running canary that
    // could later promote the rolled-back candidate on this shard alone.
    abort_shard_canary();
    health_->mark(shard, 0, false);  // unreachable primary control plane
    return false;
  } catch (const std::exception& e) {
    // RpcError / WireError: the shard answered (it is alive), it just
    // refused or mangled the control-plane exchange.
    *detail = e.what();
    abort_shard_canary();
    return false;
  }
}

}  // namespace anchor::cluster

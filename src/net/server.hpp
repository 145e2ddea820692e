// TCP front-end for the serving stack: accepts loopback connections and
// drives the async batcher, so out-of-process consumers get gated,
// versioned embeddings over the wire.
//
// Connections, threads, stop/shutdown and the connection error policy live
// in net::FrameServer (net/frame_server.hpp); this class is the dispatch
// behind it. Lookups block their handler on the batcher future, so
// concurrent connections' single-key requests coalesce into shared batches
// inside AsyncLookupService instead of each paying the full per-batch
// cost. Control-plane requests (try_promote, stats, shutdown) execute on
// the handler thread directly. A kShutdown frame from a client stops the
// server, which is how the daemon supports remote shutdown for scripted
// smoke tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ann/ann_service.hpp"
#include "net/fault.hpp"
#include "net/frame_server.hpp"
#include "net/wire.hpp"
#include "obs/drift_probe.hpp"
#include "obs/heavy_hitters.hpp"
#include "obs/log_histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/windowed.hpp"
#include "serve/batcher.hpp"
#include "serve/canary.hpp"
#include "serve/deployment_gate.hpp"
#include "serve/embedding_store.hpp"
#include "serve/lookup_service.hpp"

namespace anchor::net {

struct ServerConfig {
  /// 0 = ephemeral; read the bound port back with Server::port().
  std::uint16_t port = 0;
  serve::LookupConfig lookup;
  serve::BatcherConfig batcher;
  serve::GateConfig gate;
  /// Defaults for kCanaryStart (a request may override fraction and
  /// shadow_rate per canary).
  serve::CanaryConfig canary;
  /// Poll granularity of the accept/handler loops — bounds how long stop()
  /// waits for idle connections to notice.
  int poll_interval_ms = 100;
  /// Per-recv/send stall bound on connection sockets: a client that goes
  /// silent mid-frame or stops draining a reply is dropped after this
  /// long, so it can never pin a handler thread (and therefore stop())
  /// indefinitely. Idle BETWEEN frames is unlimited — that wait is the
  /// stop-aware poll loop.
  int io_timeout_ms = 2000;
  /// Arms the fault-injection subsystem (`--fault-inject` on the daemon).
  /// When false the FAULT_SET RPC is refused, so a production server
  /// cannot be perturbed remotely; `faults` is the initial config (the
  /// no-fault default arms the RPC without perturbing anything yet).
  bool fault_inject = false;
  FaultConfig faults;
  /// Seed for the injector's probability draws — a seeded chaos run
  /// replays the same fault sequence.
  std::uint64_t fault_seed = 0x9e3779b97f4a7c15ull;
  /// Approximate top-k serving (the TOPK RPC). On by default; when
  /// disabled TOPK answers with an Error frame and no index is ever
  /// built. Indexes are built lazily per snapshot version on first use
  /// and swap with the live version automatically (epoch-keyed cache in
  /// ann::AnnService), so gate/canary/rollout flows apply unchanged.
  bool ann_enable = true;
  ann::AnnConfig ann;
  /// Online churn gate: when > 0, a (non-forced) TRY_PROMOTE additionally
  /// measures served top-k churn between the incumbent's and candidate's
  /// indexes over `topk_churn_queries` probe rows at k =
  /// `topk_churn_k`, and refuses the promote when mean churn exceeds
  /// this threshold — the paper's kNN-overlap instability applied to
  /// what TOPK clients would actually observe across the swap.
  double topk_churn_reject = 0.0;
  std::size_t topk_churn_queries = 64;
  std::size_t topk_churn_k = 10;
  /// Windowed-telemetry ring shape, shared by the RPC-level and
  /// batch-level recorders (they must agree so their snapshots merge).
  obs::WindowedConfig windowed;
  /// SLO burn-rate policy over the RPC window (`--slo-p99-us`,
  /// `--slo-error-budget` on the daemon).
  obs::SloConfig slo;
  /// Heavy-hitter sketch entry budget (`--hot-keys`); 0 disables key-load
  /// attribution entirely (no sketch, no heat map, HEAT serves empties).
  std::size_t hot_key_capacity = 512;
  /// Range heat-map fanout over the live vocabulary (`--heat-buckets`).
  std::size_t heat_buckets = 256;
  /// Continuous instability probe (`--drift-interval`); interval 0 keeps
  /// the gauges manual-only (kHeat/metrics still work).
  obs::DriftProbeConfig drift;
};

class Server {
 public:
  /// Binds 127.0.0.1:port and builds the serving stack (LookupService →
  /// AsyncLookupService → DeploymentGate) over the caller's store. The
  /// store must outlive the server; it may be mutated concurrently
  /// (add_version + RPC try_promote is the intended hot-swap flow).
  Server(serve::EmbeddingStore& store, ServerConfig config = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const { return frames_.port(); }

  /// Serves on the calling thread until stop() is called from elsewhere or
  /// a client sends kShutdown. Handler threads are joined by stop()/dtor.
  void run() { frames_.run(); }
  /// Serves on a background thread; returns immediately.
  void start() { frames_.start(); }
  /// Stops the drift probe and the connection loop (joining every thread),
  /// then drains a running canary. Safe to call multiple times and from
  /// any thread (except a handler's own).
  void stop();

  /// True once a client's kShutdown was honored — the daemon's main loop
  /// watches this.
  bool shutdown_requested() const { return frames_.shutdown_requested(); }

  const serve::LookupService& service() const { return service_; }
  serve::AsyncLookupService& async() { return async_; }
  const serve::DeploymentGate& gate() const { return gate_; }
  /// The process metrics plane: serve-layer counters and latency
  /// histograms are bridged in by the constructor; the kMetrics RPC and
  /// the daemon's Prometheus endpoint both render snapshots of this.
  obs::MetricsRegistry& metrics_registry() { return metrics_; }
  /// The canary most recently started over RPC (running or terminal);
  /// nullptr when none was ever started. For tests/monitoring.
  std::shared_ptr<serve::CanaryRouter> canary() const;
  /// The per-server fault injector (armed via ServerConfig::fault_inject).
  FaultInjector& fault_injector() { return faults_; }
  /// The ANN service behind the TOPK RPC; nullptr when ann_enable=false.
  ann::AnnService* ann() { return ann_.get(); }
  /// RPC-level windowed telemetry (one record per data-plane request).
  obs::WindowedStats& windowed() { return windowed_; }
  /// Key-load recorders fed by LookupService; nullptr when
  /// hot_key_capacity == 0.
  obs::KeyLoadRecorder* key_load() { return load_.get(); }
  /// The continuous instability probe; nullptr for an empty store.
  obs::DriftProbe* drift() { return drift_.get(); }
  /// What the kHeat RPC answers: this server's windowed ring, heavy-hitter
  /// sketch, and range heat map, snapshotted together.
  HeatReport heat_report();

 private:
  /// Dispatches one request frame; returns false when the connection
  /// should close (shutdown honored). Serving errors throw and become
  /// kError replies (FrameServer's policy). `trace` is the frame's trace
  /// context (invalid for untraced requests): traced lookups take the
  /// batcher's traced general path so their spans are recorded.
  bool dispatch(TcpStream& stream, MsgType type,
                const std::vector<std::uint8_t>& payload,
                const obs::TraceContext& trace);
  /// Writes a data-plane (lookup) reply through the fault injector;
  /// returns false when the injected fault closed the connection. Control
  /// replies bypass this — chaos must not blind the chaos orchestrator.
  bool send_data_reply(TcpStream& stream, MsgType type,
                       const WireWriter& reply);
  void register_metrics();

  serve::EmbeddingStore& store_;
  ServerConfig config_;
  /// Shared with the canary router's candidate-side stack, so the Stats
  /// RPC keeps covering all traffic while a canary routes part of it.
  std::shared_ptr<serve::ServeStats> service_stats_;
  std::shared_ptr<serve::ServeStats> batcher_stats_;
  /// Telemetry recorders are declared (and constructed) before the
  /// services that hold pointers into them: windowed_ feeds the RPC
  /// dispatch loop, batch_windowed_ rides BatcherConfig::windowed, and
  /// load_ rides LookupConfig::load (so the canary's candidate stack and
  /// the incumbent attribute into the same sketch).
  obs::WindowedStats windowed_;
  obs::WindowedStats batch_windowed_;
  std::unique_ptr<obs::KeyLoadRecorder> load_;
  obs::SloMonitor slo_;
  serve::LookupService service_;
  serve::AsyncLookupService async_;
  serve::DeploymentGate gate_;
  obs::MetricsRegistry metrics_;
  /// Declared after metrics_ so its background thread (stopped in stop(),
  /// but belt-and-braces for destruction order) dies before the gauges it
  /// writes.
  std::unique_ptr<obs::DriftProbe> drift_;
  FaultInjector faults_;
  std::unique_ptr<ann::AnnService> ann_;
  /// TOPK observability: request count plus the tuning-relevant shape of
  /// each served search (latency, cells probed, shortlist size).
  std::atomic<std::uint64_t> topk_requests_{0};
  obs::LogHistogram topk_latency_us_;
  obs::LogHistogram topk_cells_probed_;
  obs::LogHistogram topk_shortlist_;

  /// The canary-routed data plane: nullptr or inactive → the plain async
  /// path. The pointer is swapped under canary_mu_ by the control plane;
  /// handlers take a shared_ptr copy per request, so an abort/replace
  /// never invalidates a lookup in flight.
  std::shared_ptr<serve::CanaryRouter> active_canary() const;
  CanaryStatusReport canary_status_report() const;

  /// Serializes kTryPromote/kCanary* handling (audit-log appends are not
  /// internally synchronized, and gating is control-plane-rare anyway).
  std::mutex promote_mu_;
  mutable std::mutex canary_mu_;
  std::shared_ptr<serve::CanaryRouter> canary_;
  /// Status of a phase-1-rejected canary (no router to ask).
  CanaryStatusReport last_canary_status_;
  /// Declared last: its handler threads call dispatch(), so they are
  /// joined (stop(), or its own destructor) before any member above dies.
  FrameServer frames_;
};

}  // namespace anchor::net

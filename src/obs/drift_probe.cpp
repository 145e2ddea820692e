#include "obs/drift_probe.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/measures.hpp"
#include "la/kernels.hpp"

namespace anchor::obs {

DriftProbe::DriftProbe(const serve::EmbeddingStore& store,
                       DriftProbeConfig config)
    : store_(store), config_(config) {
  if (config_.knn_k == 0) config_.knn_k = 1;
  reference_ = store_.live();
  if (!reference_) return;  // empty store: probe stays inert
  reference_version_ = reference_->version();

  // Same fixed-sample discipline as the canary probe panel: one seeded
  // draw at pin time, stable for the probe's lifetime.
  probe_ids_ = core::sample_ids(reference_->vocab_size(),
                                std::max<std::size_t>(1, config_.probe_rows),
                                config_.seed ^ 0x6472696674703935ull);
  reference_panel_ = serve::probe_panel(*reference_, probe_ids_);
  reference_topk_.resize(probe_ids_.size());
  for (std::size_t p = 0; p < probe_ids_.size(); ++p) {
    if (reference_panel_.valid[p]) {
      core::panel_topk(reference_panel_.rows, reference_panel_.rows.row(p),
                       config_.knn_k, p, &reference_topk_[p]);
    }
  }
}

DriftProbe::~DriftProbe() { stop(); }

DriftSample DriftProbe::run_once() {
  std::lock_guard<std::mutex> lock(mu_);
  DriftSample sample;
  const serve::SnapshotPtr live = store_.live();
  if (!reference_ || !live) {
    last_ = sample;
    return sample;
  }
  sample.live_version = live->version();
  sample.same_snapshot = live.get() == reference_.get();

  if (live->dim() != reference_->dim()) {
    // A dimensionality change is maximal drift by definition — nothing
    // is commensurable across the swap.
    sample.topk_agreement = 0.0;
    sample.displacement_mean = 2.0;
    sample.displacement_p95 = 2.0;
  } else {
    const serve::ProbePanel live_panel = serve::probe_panel(*live, probe_ids_);

    const std::size_t dim = reference_->dim();
    double agreement_sum = 0.0;
    std::uint64_t agreement_n = 0;
    std::vector<double> displacements;
    displacements.reserve(probe_ids_.size());
    std::vector<std::size_t> live_topk;
    for (std::size_t p = 0; p < probe_ids_.size(); ++p) {
      if (!reference_panel_.valid[p] || !live_panel.valid[p]) continue;
      // Own-space top-k overlap: each side's neighbors computed within
      // its own panel geometry, so pure rotations agree perfectly.
      core::panel_topk(live_panel.rows, live_panel.rows.row(p), config_.knn_k,
                       p, &live_topk);
      if (!live_topk.empty() && !reference_topk_[p].empty()) {
        agreement_sum += core::topk_overlap(reference_topk_[p], live_topk);
        ++agreement_n;
      }
      // Rows are unit-norm, so the dot IS the cosine.
      const double cos = la::kernels::dot(reference_panel_.rows.row(p),
                                          live_panel.rows.row(p), dim);
      displacements.push_back(std::clamp(1.0 - cos, 0.0, 2.0));
    }
    sample.probes = displacements.size();
    // Rows compared but none with neighbors (a one-row panel) is no
    // evidence of drift: keep the default 1.0, as displacement keeps 0.
    // No row comparable at all (every probe row out of the live
    // vocabulary or zero-norm: a shrunk or corrupted reload) is maximal
    // drift.
    if (agreement_n != 0) {
      sample.topk_agreement = agreement_sum / static_cast<double>(agreement_n);
    } else if (sample.probes == 0) {
      sample.topk_agreement = 0.0;
    }
    if (!displacements.empty()) {
      double sum = 0.0;
      for (const double d : displacements) sum += d;
      sample.displacement_mean =
          sum / static_cast<double>(displacements.size());
      std::sort(displacements.begin(), displacements.end());
      const std::size_t rank = static_cast<std::size_t>(
          std::ceil(0.95 * static_cast<double>(displacements.size())));
      sample.displacement_p95 =
          displacements[std::min(rank == 0 ? 0 : rank - 1,
                                 displacements.size() - 1)];
    }
  }

  last_ = sample;
  if (runs_counter_ != nullptr) runs_counter_->inc();
  if (agreement_gauge_ != nullptr) {
    agreement_gauge_->set(sample.topk_agreement);
  }
  if (displacement_p95_gauge_ != nullptr) {
    displacement_p95_gauge_->set(sample.displacement_p95);
  }
  if (displacement_mean_gauge_ != nullptr) {
    displacement_mean_gauge_->set(sample.displacement_mean);
  }
  return sample;
}

void DriftProbe::register_metrics(MetricsRegistry& registry) {
  agreement_gauge_ = &registry.gauge(
      "anchor_drift_topk_agreement",
      "Mean own-space top-k agreement of the live snapshot against the "
      "pinned reference panel (1 = no drift)");
  displacement_p95_gauge_ = &registry.gauge(
      "anchor_drift_displacement_p95",
      "p95 per-key cosine displacement (1 - cos) of live probe rows vs "
      "the pinned reference panel");
  displacement_mean_gauge_ = &registry.gauge(
      "anchor_drift_displacement_mean",
      "Mean per-key cosine displacement of live probe rows vs the pinned "
      "reference panel");
  runs_counter_ = &registry.counter(
      "anchor_drift_probe_runs_total", "Completed drift-probe runs");
}

void DriftProbe::start() {
  if (config_.interval_ms == 0 || !reference_ || thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = false;
  }
  thread_ = std::thread([this] { loop(); });
}

void DriftProbe::stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void DriftProbe::loop() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stop_) {
    if (stop_cv_.wait_for(lock,
                          std::chrono::milliseconds(config_.interval_ms),
                          [this] { return stop_; })) {
      break;
    }
    lock.unlock();
    run_once();
    lock.lock();
  }
}

DriftSample DriftProbe::last() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_;
}

}  // namespace anchor::obs

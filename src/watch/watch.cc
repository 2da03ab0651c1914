#include "watch/watch.hh"

#include <algorithm>
#include <sstream>

#include "common/fileio.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"

namespace edgert::watch {

namespace {

/** Zero-padded incident sequence number ("000", "001", ...). */
std::string
incidentSeq(std::size_t n)
{
    std::string s = std::to_string(n);
    while (s.size() < 3)
        s.insert(s.begin(), '0');
    return s;
}

void
writeFlightEvent(std::ostream &os, const FlightEvent &e)
{
    os << "{\"t_s\": " << jsonNumber(e.t_s) << ", \"kind\": \""
       << flightEventKindName(e.kind) << "\", \"model\": \""
       << jsonEscape(e.model) << "\", \"id\": " << e.id
       << ", \"batch\": " << e.batch
       << ", \"device\": " << e.device << ", \"detail\": \""
       << jsonEscape(e.detail) << "\"}";
}

void
writeAlert(std::ostream &os, const Alert &a)
{
    os << "{\"t_s\": " << jsonNumber(a.t_s) << ", \"model\": \""
       << jsonEscape(a.model) << "\", \"tier\": \""
       << alertTierName(a.tier)
       << "\", \"fast_burn\": " << jsonNumber(a.burn.fast)
       << ", \"mid_burn\": " << jsonNumber(a.burn.mid)
       << ", \"slow_burn\": " << jsonNumber(a.burn.slow)
       << ", \"window_total\": " << a.window_total << "}";
}

void
writeAnomaly(std::ostream &os, const AnomalyFinding &f)
{
    os << "{\"t_s\": " << jsonNumber(f.t_s) << ", \"model\": \""
       << jsonEscape(f.model)
       << "\", \"fast_device\": " << f.fast_device
       << ", \"fast_device_name\": \""
       << jsonEscape(f.fast_device_name)
       << "\", \"slow_device\": " << f.slow_device
       << ", \"slow_device_name\": \""
       << jsonEscape(f.slow_device_name)
       << "\", \"fast_median_ms\": " << jsonNumber(f.fast_median_ms)
       << ", \"slow_median_ms\": " << jsonNumber(f.slow_median_ms)
       << ", \"margin_pct\": " << jsonNumber(f.margin_pct) << "}";
}

} // namespace

EdgeWatch::EdgeWatch(const WatchConfig &cfg,
                     std::vector<std::string> models,
                     std::vector<double> model_slo_ms,
                     std::vector<std::string> device_names,
                     std::vector<double> device_scores)
    : cfg_(cfg),
      models_(std::move(models)),
      slo_ms_(std::move(model_slo_ms)),
      device_names_(device_names),
      recorder_(cfg.flight_recorder_depth),
      anomaly_(
          AnomalyDetector::Config{cfg.anomaly_window,
                                  cfg.anomaly_min_samples,
                                  cfg.anomaly_margin_pct},
          std::move(device_names), std::move(device_scores)),
      stages_(models_.size())
{
    if (models_.size() != slo_ms_.size())
        fatal("EdgeWatch: ", models_.size(), " models vs ",
              slo_ms_.size(), " SLOs");
    for (const std::string &m : models_)
        trackers_.emplace_back(m, cfg.trackerConfig());
    summary_.enabled = true;
}

const std::string &
EdgeWatch::modelName(int model) const
{
    if (model < 0 || model >= static_cast<int>(models_.size()))
        fatal("EdgeWatch: model index ", model, " out of range");
    return models_[static_cast<std::size_t>(model)];
}

void
EdgeWatch::onAdmit(double t_s, int model, std::int64_t id)
{
    summary_.admitted++;
    FlightEvent e;
    e.t_s = t_s;
    e.kind = FlightEvent::kAdmit;
    e.model = modelName(model);
    e.id = id;
    recorder_.record(e);
}

void
EdgeWatch::onShed(double t_s, int model, std::int64_t id)
{
    summary_.shed++;
    FlightEvent e;
    e.t_s = t_s;
    e.kind = FlightEvent::kShed;
    e.model = modelName(model);
    e.id = id;
    recorder_.record(e);
    // A shed consumed error budget: the request got no service.
    handleAlert(trackers_[static_cast<std::size_t>(model)].observe(
        t_s, true));
}

void
EdgeWatch::onDispatch(double t_s, int model, int batch, int device,
                      std::int64_t first_id)
{
    FlightEvent e;
    e.t_s = t_s;
    e.kind = FlightEvent::kDispatch;
    e.model = modelName(model);
    e.id = first_id;
    e.batch = batch;
    e.device = device;
    recorder_.record(e);
}

void
EdgeWatch::onComplete(const RequestTrace &rt)
{
    summary_.completed++;
    const std::string &name = modelName(rt.model);
    bool bad =
        rt.totalMs() > slo_ms_[static_cast<std::size_t>(rt.model)];

    FlightEvent e;
    e.t_s = rt.done_s;
    e.kind = FlightEvent::kComplete;
    e.model = name;
    e.id = rt.id;
    e.batch = rt.batch;
    e.device = rt.device;
    if (bad)
        e.detail = "slo_miss";
    recorder_.record(e);

    StageSums &st = stages_[static_cast<std::size_t>(rt.model)];
    st.n++;
    st.queue += rt.queueMs();
    st.dispatch_wait += rt.dispatchWaitMs();
    st.upload += rt.uploadMs();
    st.compute += rt.computeMs();
    st.download += rt.downloadMs();
    st.total += rt.totalMs();

    // Slow-request reservoir: worst slow_trace_count by total
    // latency, slowest first, ties to the lower request id.
    auto &slow = summary_.slow_requests;
    auto slower = [](const RequestTrace &a, const RequestTrace &b) {
        if (a.totalMs() != b.totalMs())
            return a.totalMs() > b.totalMs();
        return a.id < b.id;
    };
    auto pos =
        std::lower_bound(slow.begin(), slow.end(), rt, slower);
    if (pos != slow.end() ||
        static_cast<int>(slow.size()) < cfg_.slow_trace_count)
        slow.insert(pos, rt);
    if (static_cast<int>(slow.size()) > cfg_.slow_trace_count)
        slow.pop_back();

    handleAlert(trackers_[static_cast<std::size_t>(rt.model)]
                    .observe(rt.done_s, bad));

    auto finding =
        anomaly_.observe(rt.done_s, name, rt.device, rt.totalMs());
    if (finding) {
        summary_.anomalies++;
        summary_.anomaly_findings.push_back(*finding);
        obs::MetricRegistry::global()
            .counter("watch.anomaly.flagged", {{"model", name}})
            .add();
        FlightEvent fe;
        fe.t_s = finding->t_s;
        fe.kind = FlightEvent::kAnomaly;
        fe.model = name;
        fe.device = finding->slow_device;
        fe.detail = finding->slow_device_name + " slower than " +
                    finding->fast_device_name;
        recorder_.record(fe);
    }
}

void
EdgeWatch::onSwapBegin(double t_s, int model,
                       std::uint64_t build_id)
{
    FlightEvent e;
    e.t_s = t_s;
    e.kind = FlightEvent::kSwapBegin;
    e.model = modelName(model);
    e.detail = "build " + std::to_string(build_id);
    recorder_.record(e);
}

void
EdgeWatch::onSwapCommit(double t_s, int model,
                        std::uint64_t build_id)
{
    FlightEvent e;
    e.t_s = t_s;
    e.kind = FlightEvent::kSwapCommit;
    e.model = modelName(model);
    e.detail = "build " + std::to_string(build_id);
    recorder_.record(e);
}

void
EdgeWatch::onSwapRollback(double t_s, int model,
                          const std::string &reason)
{
    const std::string &name = modelName(model);
    FlightEvent e;
    e.t_s = t_s;
    e.kind = FlightEvent::kSwapRollback;
    e.model = name;
    e.detail = reason;
    recorder_.record(e);
    dumpIncident(t_s, "swap_rollback", name, reason);
}

void
EdgeWatch::handleAlert(const Alert &a)
{
    if (a.t_s < 0.0)
        return; // no tier transition
    switch (a.tier) {
      case Alert::kPage:
        summary_.page_alerts++;
        if (summary_.first_page_s < 0.0)
            summary_.first_page_s = a.t_s;
        break;
      case Alert::kWarn: summary_.warn_alerts++; break;
      case Alert::kNone: summary_.clear_alerts++; break;
    }
    summary_.alerts.push_back(a);
    obs::MetricRegistry::global()
        .counter("watch.alert.fired",
                 {{"model", a.model},
                  {"tier", alertTierName(a.tier)}})
        .add();

    FlightEvent e;
    e.t_s = a.t_s;
    e.kind = FlightEvent::kAlert;
    e.model = a.model;
    e.detail = alertTierName(a.tier);
    recorder_.record(e);

    if (a.tier == Alert::kPage) {
        std::ostringstream detail;
        detail << "burn fast " << jsonNumber(a.burn.fast)
               << " mid " << jsonNumber(a.burn.mid) << " slow "
               << jsonNumber(a.burn.slow);
        dumpIncident(a.t_s, "page_alert", a.model, detail.str());
        warn("EdgeWatch: page alert for '", a.model,
             "' at t=", a.t_s, " s (fast burn ", a.burn.fast,
             ", mid burn ", a.burn.mid, ")");
    }
}

void
EdgeWatch::dumpIncident(double t_s, const std::string &reason,
                        const std::string &model,
                        const std::string &detail)
{
    if (static_cast<int>(incidents_.size()) >= cfg_.max_incidents) {
        summary_.incidents++; // counted, not dumped
        return;
    }
    std::ostringstream os;
    os << "{\n";
    os << "  \"incident\": " << incidents_.size() << ",\n";
    os << "  \"reason\": \"" << jsonEscape(reason) << "\",\n";
    os << "  \"t_s\": " << jsonNumber(t_s) << ",\n";
    os << "  \"model\": \"" << jsonEscape(model) << "\",\n";
    os << "  \"detail\": \"" << jsonEscape(detail) << "\",\n";
    os << "  \"recorder\": {\"depth\": " << recorder_.depth()
       << ", \"recorded\": " << recorder_.totalRecorded()
       << "},\n";
    os << "  \"events\": [\n";
    std::vector<FlightEvent> events = recorder_.snapshot();
    for (std::size_t i = 0; i < events.size(); i++) {
        os << "    ";
        writeFlightEvent(os, events[i]);
        os << (i + 1 < events.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";

    std::string fname = incidentSeq(incidents_.size()) + "-" +
                        reason + ".json";
    incidents_.emplace_back(fname, os.str());
    summary_.incidents++;
    if (!cfg_.incident_prefix.empty()) {
        writeFileChecked(cfg_.incident_prefix + fname,
                         incidents_.back().second);
    }
}

void
EdgeWatch::finish(double end_s)
{
    for (std::size_t m = 0; m < models_.size(); m++) {
        SloTracker &tr = trackers_[m];
        ModelWatchStats ms;
        ms.model = models_[m];
        ms.tier = tr.tier();
        ms.burn = tr.burnRates();
        ms.observed = tr.total();
        ms.bad = tr.bad();
        const StageSums &st = stages_[m];
        if (st.n > 0) {
            double n = static_cast<double>(st.n);
            ms.queue_mean_ms = st.queue / n;
            ms.dispatch_wait_mean_ms = st.dispatch_wait / n;
            ms.upload_mean_ms = st.upload / n;
            ms.compute_mean_ms = st.compute / n;
            ms.download_mean_ms = st.download / n;
            ms.total_mean_ms = st.total / n;
        }
        summary_.models.push_back(std::move(ms));
    }
    (void)end_s;
    finished_ = true;
}

std::string
EdgeWatch::reportJson() const
{
    if (!finished_)
        fatal("EdgeWatch::reportJson before finish()");
    std::ostringstream os;
    os << "{\n";
    os << "  \"config\": {\"slo_objective_pct\": "
       << jsonNumber(cfg_.slo_objective_pct)
       << ", \"page_burn\": " << jsonNumber(cfg_.page_burn)
       << ", \"warn_burn\": " << jsonNumber(cfg_.warn_burn)
       << ", \"fast_window_s\": " << jsonNumber(cfg_.fast_window_s)
       << ", \"mid_window_s\": " << jsonNumber(cfg_.mid_window_s)
       << ", \"slow_window_s\": " << jsonNumber(cfg_.slow_window_s)
       << ", \"flight_recorder_depth\": "
       << cfg_.flight_recorder_depth << "},\n";
    os << "  \"totals\": {\"admitted\": " << summary_.admitted
       << ", \"shed\": " << summary_.shed
       << ", \"completed\": " << summary_.completed
       << ", \"page_alerts\": " << summary_.page_alerts
       << ", \"warn_alerts\": " << summary_.warn_alerts
       << ", \"clear_alerts\": " << summary_.clear_alerts
       << ", \"anomalies\": " << summary_.anomalies
       << ", \"incidents\": " << summary_.incidents
       << ", \"first_page_s\": "
       << jsonNumber(summary_.first_page_s) << "},\n";

    os << "  \"models\": [\n";
    for (std::size_t i = 0; i < summary_.models.size(); i++) {
        const ModelWatchStats &m = summary_.models[i];
        os << "    {\"model\": \"" << jsonEscape(m.model)
           << "\", \"tier\": \"" << alertTierName(m.tier)
           << "\", \"fast_burn\": " << jsonNumber(m.burn.fast)
           << ", \"mid_burn\": " << jsonNumber(m.burn.mid)
           << ", \"slow_burn\": " << jsonNumber(m.burn.slow)
           << ", \"observed\": " << m.observed
           << ", \"bad\": " << m.bad
           << ", \"stage_mean_ms\": {\"queue\": "
           << jsonNumber(m.queue_mean_ms) << ", \"dispatch_wait\": "
           << jsonNumber(m.dispatch_wait_mean_ms)
           << ", \"upload\": " << jsonNumber(m.upload_mean_ms)
           << ", \"compute\": " << jsonNumber(m.compute_mean_ms)
           << ", \"download\": " << jsonNumber(m.download_mean_ms)
           << ", \"total\": " << jsonNumber(m.total_mean_ms)
           << "}}"
           << (i + 1 < summary_.models.size() ? "," : "") << "\n";
    }
    os << "  ],\n";

    os << "  \"alerts\": [\n";
    for (std::size_t i = 0; i < summary_.alerts.size(); i++) {
        os << "    ";
        writeAlert(os, summary_.alerts[i]);
        os << (i + 1 < summary_.alerts.size() ? "," : "") << "\n";
    }
    os << "  ],\n";

    os << "  \"anomalies\": [\n";
    for (std::size_t i = 0;
         i < summary_.anomaly_findings.size(); i++) {
        os << "    ";
        writeAnomaly(os, summary_.anomaly_findings[i]);
        os << (i + 1 < summary_.anomaly_findings.size() ? "," : "")
           << "\n";
    }
    os << "  ],\n";

    os << "  \"slow_requests\": [\n";
    for (std::size_t i = 0; i < summary_.slow_requests.size();
         i++) {
        const RequestTrace &r = summary_.slow_requests[i];
        os << "    {\"id\": " << r.id << ", \"model\": \""
           << jsonEscape(modelName(r.model))
           << "\", \"device\": " << r.device
           << ", \"batch\": " << r.batch
           << ", \"arrival_s\": " << jsonNumber(r.arrival_s)
           << ", \"queue_ms\": " << jsonNumber(r.queueMs())
           << ", \"dispatch_wait_ms\": "
           << jsonNumber(r.dispatchWaitMs())
           << ", \"upload_ms\": " << jsonNumber(r.uploadMs())
           << ", \"compute_ms\": " << jsonNumber(r.computeMs())
           << ", \"download_ms\": " << jsonNumber(r.downloadMs())
           << ", \"total_ms\": " << jsonNumber(r.totalMs()) << "}"
           << (i + 1 < summary_.slow_requests.size() ? "," : "")
           << "\n";
    }
    os << "  ],\n";

    os << "  \"recorder\": {\"depth\": " << recorder_.depth()
       << ", \"recorded\": " << recorder_.totalRecorded()
       << ", \"incident_files\": [";
    for (std::size_t i = 0; i < incidents_.size(); i++)
        os << (i ? ", " : "") << "\""
           << jsonEscape(incidents_[i].first) << "\"";
    os << "]}\n";
    os << "}\n";
    return os.str();
}

void
EdgeWatch::writeFiles() const
{
    if (!cfg_.out_path.empty())
        writeFileChecked(cfg_.out_path, reportJson());
    // Incident files were written as they were dumped.
}

} // namespace edgert::watch

#include "serve/serving.hh"

#include <map>

#include "common/json.hh"
#include "nn/model_zoo.hh"
#include "obs/clock.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/predictor.hh"

namespace edgert::serve {

void
parseModelSpec(
    const ModelSpec &spec, ModelConfig &mc,
    const std::function<bool(const std::string &, const std::string &)>
        &extra)
{
    mc.model = spec.model;
    if (!spec.precision.empty())
        mc.precision = nn::parsePrecisionName(spec.precision);
    for (const auto &[k, v] : spec.options) {
        if (k == "qps")
            mc.arrivals.qps = spec.number(k, v);
        else if (k == "slo_ms")
            mc.slo_ms = spec.number(k, v);
        else if (k == "arrival")
            mc.arrivals.kind = parseArrivalKind(v);
        else if (k == "max_batch")
            mc.batching.max_batch = spec.integer(k, v);
        else if (k == "timeout_us")
            mc.batching.timeout_us = spec.number(k, v);
        else if (k == "instances")
            mc.instances_per_device = spec.integer(k, v);
        else if (k == "burst_factor")
            mc.arrivals.burst_factor = spec.number(k, v);
        else if (k == "period_s")
            mc.arrivals.period_s = spec.number(k, v);
        else if (k == "duty")
            mc.arrivals.duty = spec.number(k, v);
        else if (k == "calib_seed")
            mc.calibration_seed =
                static_cast<std::uint64_t>(spec.integer(k, v));
        else if (!extra || !extra(k, v))
            spec.unknown(k);
    }
}

obs::Counter
modelCounter(const std::string &name, const std::string &model)
{
    return obs::MetricRegistry::global().counter(name,
                                                 {{"model", model}});
}

obs::Histogram
modelHistogram(const std::string &name, const std::string &model)
{
    return obs::MetricRegistry::global().histogram(name,
                                                   {{"model", model}});
}

void
ControlQueue::push(double t, int kind, int target, std::int64_t req)
{
    ControlEvent e;
    e.t = t;
    e.seq = seq_++;
    e.kind = kind;
    e.target = target;
    e.req = req;
    q_.push(e);
}

ControlEvent
ControlQueue::pop()
{
    ControlEvent e = q_.top();
    q_.pop();
    return e;
}

void
dispatchBatches(ControlQueue &evq, InstancePool &pool,
                const std::vector<int> &candidates, BatchQueue &queue,
                const DynamicBatcher &batcher, int timeout_target,
                const EngineVersion &version, int version_index,
                int target, double t, const DispatchHook &on_dispatch)
{
    while (!queue.empty()) {
        const int idx = pool.freeInstance(candidates, t);
        if (idx < 0)
            break;
        const int cut =
            batcher.decide(queue.size(), queue.oldestSeconds(), t);
        if (cut == 0)
            break;
        Instance &inst = pool.instances()[static_cast<std::size_t>(idx)];
        const EngineSet &set = version.sets[static_cast<std::size_t>(
            target == kInstanceDevice ? inst.device : target)];
        PlannedDispatch &pd = inst.plan.emplace_back();
        pd.t_s = t;
        pd.batch = cut;
        pd.engine_idx = set.indexFor(cut);
        pd.version = version_index;
        pd.request_ids = queue.cut(cut);
        pd.predicted_service_s =
            set.service_s[static_cast<std::size_t>(pd.engine_idx)];
        inst.predicted_free_s = t + pd.predicted_service_s;
        evq.push(inst.predicted_free_s, kInstanceFree, idx);
        on_dispatch(inst, pd);
    }
    if (!queue.empty() && queue.frontId() != queue.timeout_armed) {
        queue.timeout_armed = queue.frontId();
        evq.push(batcher.deadlineFor(queue.oldestSeconds()),
                 kBatchTimeout, timeout_target);
    }
}

double
predictSojournSeconds(const InstancePool &pool,
                      const std::vector<int> &candidates,
                      const EngineVersion &version, int target,
                      const BatchPolicy &policy, int queued_ahead,
                      double now_s, double arrival_rate_hz)
{
    if (candidates.empty())
        return 1e9; // nothing can serve this model

    // Expected wait for this request's own batch to fill: the slots
    // left after the backlog ahead of it is packed into full
    // batches, divided by the arrival rate, capped by the batcher's
    // timeout.
    int max_batch = std::max(1, policy.max_batch);
    double timeout_s = policy.timeout_us * 1e-6;
    int slots_open =
        max_batch - 1 - (queued_ahead % max_batch);
    double fill_s =
        arrival_rate_hz > 1e-9
            ? static_cast<double>(slots_open) / arrival_rate_hz
            : timeout_s;
    fill_s = std::min(fill_s, timeout_s);

    // The request's own dispatch: its backlog remainder plus the
    // arrivals expected while the batcher coalesces — not a full
    // max_batch, or a lightly loaded server would predict the
    // worst-case batch service for every request and shed traffic
    // it could easily carry.
    int growth = arrival_rate_hz > 0.0
                     ? static_cast<int>(arrival_rate_hz * fill_s)
                     : 0;
    int own_batch = std::min(max_batch,
                             queued_ahead % max_batch + 1 + growth);

    // Greedily assign the backlog's full batches, then the
    // request's own batch, onto earliest-predicted-free instances.
    auto instanceAt = [&](std::size_t c) -> const Instance & {
        return pool.instances()[static_cast<std::size_t>(
            candidates[c])];
    };
    auto serviceOn = [&](std::size_t c, int batch) {
        const EngineSet &set = version.sets[static_cast<std::size_t>(
            target == kInstanceDevice ? instanceAt(c).device : target)];
        return set.service_s[static_cast<std::size_t>(
            set.indexFor(batch))];
    };
    std::vector<double> free_s;
    free_s.reserve(candidates.size());
    for (std::size_t c = 0; c < candidates.size(); c++)
        free_s.push_back(
            std::max(instanceAt(c).predicted_free_s, now_s));

    auto earliest = [&]() {
        return static_cast<std::size_t>(
            std::min_element(free_s.begin(), free_s.end()) -
            free_s.begin());
    };
    int full_batches = queued_ahead / max_batch;
    for (int b = 0; b < full_batches; b++) {
        std::size_t c = earliest();
        free_s[c] += serviceOn(c, max_batch);
    }
    std::size_t c = earliest();
    double done_s = free_s[c] + serviceOn(c, own_batch);
    return std::max(0.0, done_s - now_s) + fill_s;
}

bool
admitArrival(Request &r, double t, RequestQueue &queue, bool admission,
             const InstancePool &pool, const std::vector<int> &candidates,
             const EngineVersion &version, int target,
             const BatchPolicy &policy)
{
    queue.observeArrival(t);
    bool shed = candidates.empty();
    if (!shed && admission) {
        const double est_s = predictSojournSeconds(
            pool, candidates, version, target, policy,
            static_cast<int>(queue.size()), t, queue.rateHz());
        shed = est_s * 1e3 > r.slo_ms;
    }
    if (shed) {
        r.outcome = Outcome::kShed;
        return false;
    }
    queue.push(r.id, t);
    return true;
}

EngineSet
buildEngineSet(const gpusim::DeviceSpec &device,
               const core::BuilderConfig &bcfg, const std::string &model,
               const std::vector<int> &ladder)
{
    core::Builder builder(device, bcfg);
    EngineSet set;
    for (int b : ladder) {
        set.engines.push_back(builder.build(nn::buildZooModel(model, b)));
        set.batches.push_back(b);
    }
    for (const auto &eng : set.engines) {
        LatencyPredictor pred(device);
        pred.calibrate(eng);
        set.service_s.push_back(pred.predictServiceSeconds(eng));
    }
    return set;
}

bool
EngineVersion::available() const
{
    for (const auto &s : sets)
        if (!s.engines.empty())
            return true;
    return false;
}

void
replayPlans(gpusim::GpuSim &sim, const std::vector<PlanSource> &sources)
{
    struct Cursor
    {
        std::size_t next = 0; //!< first plan entry not yet enqueued
        std::map<std::pair<int, int>,
                 std::unique_ptr<runtime::ExecutionContext>>
            ctxs;
    };
    std::vector<Cursor> cursors(sources.size());
    auto enqueue = [&](std::size_t s) {
        const PlanSource &src = sources[s];
        Cursor &c = cursors[s];
        PlannedDispatch &pd = src.inst->plan[c.next++];
        sim.delayUntil(src.inst->stream, pd.t_s);
        auto &ctx = c.ctxs[{pd.version, pd.engine_idx}];
        if (!ctx)
            ctx = std::make_unique<runtime::ExecutionContext>(
                (*src.versions)[static_cast<std::size_t>(pd.version)]
                    .sets[static_cast<std::size_t>(src.target)]
                    .engines[static_cast<std::size_t>(pd.engine_idx)],
                sim, src.ctx_stream);
        runtime::InferenceHandle h = src.issue(*ctx);
        pd.begin = h.begin;
        pd.upload_done = h.upload_done;
        pd.compute_done = h.compute_done;
        pd.end = h.end;
    };
    for (double horizon = kReplayWindowS;; horizon += kReplayWindowS) {
        bool more = false;
        for (std::size_t s = 0; s < sources.size(); s++) {
            const auto &plan = sources[s].inst->plan;
            Cursor &c = cursors[s];
            // Enqueue until the last enqueued release is at or past
            // the horizon: that dispatch keeps the source's streams
            // busy through the pause.
            while (c.next < plan.size() &&
                   (c.next == 0 || plan[c.next - 1].t_s < horizon))
                enqueue(s);
            more = more || c.next < plan.size();
        }
        if (!more)
            break;
        sim.runUntil(horizon);
    }
    sim.run();
}

std::optional<PoolStats>
runDevices(const DeviceSims &sims,
           const std::vector<std::vector<PlanSource>> &sources,
           const std::vector<gpusim::DeviceSpec> &devices,
           int sim_threads, gpusim::TraceMode trace_mode,
           int trace_sample_every, const std::string &span,
           std::vector<double> *wall_s)
{
    const int n = static_cast<int>(sims.size());
    for (auto &sim : sims)
        sim->setTraceMode(trace_mode, trace_sample_every);
    auto runDevice = [&](std::size_t d) {
        if (!wall_s) {
            replayPlans(*sims[d], sources[d]);
            return;
        }
        std::uint64_t t0 = obs::clock().nowNanos();
        replayPlans(*sims[d], sources[d]);
        (*wall_s)[d] =
            static_cast<double>(obs::clock().nowNanos() - t0) * 1e-9;
    };
    if (wall_s)
        wall_s->assign(sims.size(), 0.0);
    const int threads = std::min(std::max(1, sim_threads), n);
    if (threads <= 1) {
        for (int d = 0; d < n; d++) {
            EDGERT_SPAN(span,
                        {{"device",
                          devices[static_cast<std::size_t>(d)].name},
                         {"index", std::to_string(d)}});
            runDevice(static_cast<std::size_t>(d));
        }
        return std::nullopt;
    }
    EDGERT_SPAN(span, {{"devices", std::to_string(n)},
                       {"threads", std::to_string(threads)}});
    for (auto &sim : sims)
        sim->setDeferMetrics(true);
    ThreadPool tp(threads);
    tp.parallelFor(static_cast<std::size_t>(n), runDevice);
    for (auto &sim : sims) {
        sim->commitMetrics();
        sim->setDeferMetrics(false);
    }
    return tp.stats();
}

std::vector<DeviceStats>
deviceReport(const DeviceSims &sims,
             const std::vector<gpusim::DeviceSpec> &devices,
             const InstancePool &pool, const std::string &prefix)
{
    obs::MetricRegistry &reg = obs::MetricRegistry::global();
    std::vector<DeviceStats> out;
    for (std::size_t d = 0; d < devices.size(); d++) {
        const auto &spec = devices[d];
        const int di = static_cast<int>(d);
        DeviceStats s;
        s.device = spec.name;
        for (const auto &inst : pool.instances())
            if (inst.device == di)
                s.instances++;
        auto st = sims[d]->stats();
        s.sm_util_pct = st.smUtilizationPct(spec.sm_count);
        s.copy_busy_pct = st.window_s > 0.0
                              ? 100.0 * st.copy_busy_s / st.window_s
                              : 0.0;
        s.makespan_s = sims[d]->nowSeconds();
        s.ram_used_bytes = pool.ramUsedBytes(di);
        s.ram_budget_bytes = pool.ramBudgetBytes(di);

        const obs::Labels labels = {{"device", spec.name},
                                    {"index", std::to_string(d)}};
        reg.gauge(prefix + ".device.sm_util_pct", labels)
            .set(s.sm_util_pct);
        reg.gauge(prefix + ".device.copy_busy_pct", labels)
            .set(s.copy_busy_pct);
        reg.gauge(prefix + ".device.instances", labels)
            .set(static_cast<double>(s.instances));
        out.push_back(std::move(s));
    }
    return out;
}

void
writeDevicesJson(std::ostream &os, const std::vector<DeviceStats> &devices)
{
    os << "  \"devices\": [\n";
    for (std::size_t i = 0; i < devices.size(); i++) {
        const DeviceStats &s = devices[i];
        os << "    {\n";
        os << "      \"device\": \"" << jsonEscape(s.device) << "\",\n";
        os << "      \"instances\": " << s.instances << ",\n";
        os << "      \"sm_util_pct\": " << jsonNumber(s.sm_util_pct)
           << ",\n";
        os << "      \"copy_busy_pct\": " << jsonNumber(s.copy_busy_pct)
           << ",\n";
        os << "      \"makespan_s\": " << jsonNumber(s.makespan_s)
           << ",\n";
        os << "      \"ram_used_bytes\": " << s.ram_used_bytes << ",\n";
        os << "      \"ram_budget_bytes\": " << s.ram_budget_bytes
           << "\n";
        os << "    }" << (i + 1 < devices.size() ? "," : "") << "\n";
    }
    os << "  ]";
}

void
saveDeviceTraces(const std::string &path, const DeviceSims &sims,
                 const std::vector<gpusim::DeviceSpec> &devices,
                 const std::vector<profile::SimSpan> &overlay,
                 const std::string &overlay_name)
{
    std::vector<profile::NamedTrace> device_traces;
    for (std::size_t d = 0; d < sims.size(); d++) {
        const auto &sim = *sims[d];
        profile::NamedTrace nt;
        nt.name = devices[d].name + "[" + std::to_string(d) + "]";
        nt.trace = &sim.trace();
        if (sim.traceMode() == gpusim::TraceMode::kSampled)
            nt.sample_every = sim.traceSampleEvery();
        device_traces.push_back(std::move(nt));
    }
    profile::saveMergedChromeTrace(path, obs::Tracer::global().spans(),
                                   device_traces, overlay,
                                   overlay_name);
}

} // namespace edgert::serve

#ifndef EDGERT_SERVE_SERVING_HH
#define EDGERT_SERVE_SERVING_HH

/**
 * @file
 * The serving core shared by EdgeServe (runServer), EdgeFleet
 * (runFleet) and EdgeStream (runStreams). All three run the same two
 * deterministic phases — a control loop that plans each engine
 * instance's dispatches on BSP-predicted service times, then a GpuSim
 * replay of those plans — and share the mechanisms here: the model
 * config, the control queue, the SLO-admission arrival path and its
 * sojourn predictor, the instance pick and batch-cut loop, the
 * calibrated engine-ladder build, the request table, the windowed
 * plan replay and the per-device report. Policy stays with each
 * caller: whether admission is on, routing and quarantine, hot-swap
 * versus staged rollout, backpressure, fleet node selection and
 * every report's own JSON shape.
 */

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "common/cliflags.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/threadpool.hh"
#include "core/builder.hh"
#include "gpusim/device.hh"
#include "gpusim/sim.hh"
#include "nn/executor.hh"
#include "obs/metrics.hh"
#include "profile/trace_export.hh"
#include "runtime/context.hh"
#include "serve/batcher.hh"
#include "serve/queue.hh"
#include "serve/request.hh"
#include "serve/scheduler.hh"
#include "serve/workload.hh"

namespace edgert::serve {

/** One served model and its traffic contract (serve and fleet). */
struct ModelConfig
{
    std::string model;       //!< nn::buildZooModel name
    double slo_ms = 50.0;    //!< end-to-end deadline
    ArrivalConfig arrivals;  //!< offered load (fleet: fleet-wide)
    BatchPolicy batching;    //!< dynamic-batcher knobs
    int instances_per_device = 1;

    /** Serving precision of this model's engine ladder. The pool
     *  and the latency predictor calibrate per (device, engine,
     *  precision) — an INT8 ladder is a different set of engines
     *  with different fingerprints, latencies and RAM footprints
     *  than the FP16 one. */
    nn::Precision precision = nn::Precision::kFp16;

    /** Calibration-batch identity for @int8 / @mixed ladders. */
    std::uint64_t calibration_seed = 0;
};

/**
 * Fill `mc` from a `--model` spec: the model name, its precision and
 * the keys serve and fleet share (qps, slo_ms, arrival, max_batch,
 * timeout_us, instances, burst_factor, period_s, duty, calib_seed).
 * Any other key goes to `extra`, which returns false for a key it
 * does not know either; an unknown key fatal()s.
 */
void parseModelSpec(
    const ModelSpec &spec, ModelConfig &mc,
    const std::function<bool(const std::string &, const std::string &)>
        &extra = {});

/** fatal() when two models share a name: their metric labels would
 *  collide. */
template <typename Config>
void
requireUniqueModels(const std::vector<Config> &models)
{
    std::set<std::string> names;
    for (const auto &m : models)
        if (!names.insert(m.model).second)
            fatal("duplicate model '", m.model,
                  "' (metric labels would collide)");
}

/** The global registry's `name{model=<model>}` series. */
obs::Counter modelCounter(const std::string &name,
                          const std::string &model);
obs::Histogram modelHistogram(const std::string &name,
                              const std::string &model);

/** Control-plane discrete event; `kind` is a DispatchEventKind or
 *  one of the runner's own kinds. */
struct ControlEvent
{
    double t = 0.0;
    std::int64_t seq = 0; //!< push order: total, deterministic tie-break
    int kind = 0;
    int target = 0;       //!< caller-defined: model, instance, node...
    std::int64_t req = -1;
};

/** Time-ordered event queue; equal times pop in push order. */
class ControlQueue
{
  public:
    /** Queue an event, stamping the next push-order sequence. */
    void push(double t, int kind, int target, std::int64_t req = -1);

    bool empty() const { return q_.empty(); }

    /** Remove and return the earliest event. */
    ControlEvent pop();

  private:
    struct After
    {
        bool operator()(const ControlEvent &a,
                        const ControlEvent &b) const
        {
            if (a.t != b.t)
                return a.t > b.t;
            return a.seq > b.seq;
        }
    };
    std::priority_queue<ControlEvent, std::vector<ControlEvent>, After>
        q_;
    std::int64_t seq_ = 0;
};

/**
 * Build `model`'s power-of-two engine ladder on `device` and
 * calibrate each rung's predicted service time. Every rung gets a
 * fresh LatencyPredictor: a calibration table shared across the
 * ladder can leave each engine with a small systematic bias, and at
 * saturation that bias accumulates in the instances' predicted-free
 * times.
 */
EngineSet buildEngineSet(const gpusim::DeviceSpec &device,
                         const core::BuilderConfig &bcfg,
                         const std::string &model,
                         const std::vector<int> &ladder);

/**
 * One build generation of a model: an EngineSet per target (a
 * device, or a fleet device class). An empty set marks the model
 * unavailable there.
 */
struct EngineVersion
{
    std::uint64_t build_id = 0;
    std::vector<EngineSet> sets;

    bool availableOn(int target) const
    {
        return !sets[static_cast<std::size_t>(target)].engines.empty();
    }

    /** True when any target has engines. */
    bool available() const;
};

/**
 * Control-event kinds dispatchBatches queues. A runner numbers its
 * own kinds from kRunnerEvent.
 */
enum DispatchEventKind : int
{
    kBatchTimeout, //!< target: the caller's key of the queue
    kInstanceFree, //!< target: the instance's pool index
    kRunnerEvent,
};

/** Engine-set target meaning "the picked instance's device". */
inline constexpr int kInstanceDevice = -1;

/** Called with each dispatch dispatchBatches plans. */
using DispatchHook =
    std::function<void(const Instance &, const PlannedDispatch &)>;

/**
 * The batch-cut loop of every runner. While `queue` holds work and
 * one of `candidates` (ascending pool indices) is predicted free at
 * `t` (InstancePool::freeInstance), `batcher` decides how many of
 * the oldest entries to cut. A cut runs on the smallest engine of
 * `version.sets[target]` (kInstanceDevice: the instance's device)
 * that fits it, takes that engine's calibrated service time as its
 * prediction, keeps the instance busy until then and queues a
 * kInstanceFree event there; its plan entry (tagged
 * `version_index`) goes to `on_dispatch`. A queue left with work
 * gets its batch timeout re-armed as a kBatchTimeout event for
 * `timeout_target` whenever its front entry changed.
 */
void dispatchBatches(ControlQueue &evq, InstancePool &pool,
                     const std::vector<int> &candidates,
                     BatchQueue &queue, const DynamicBatcher &batcher,
                     int timeout_target, const EngineVersion &version,
                     int version_index, int target, double t,
                     const DispatchHook &on_dispatch);

/**
 * Predicted sojourn (seconds from `now_s` to completion) of a
 * request arriving now, given `queued_ahead` admitted requests
 * already waiting, on the backend dispatchBatches would cut its
 * batch onto: `candidates` (ascending pool indices) running the
 * engines of `version.sets[target]` (kInstanceDevice: each
 * instance's own device). Greedily packs the backlog into full
 * max_batch dispatches onto earliest-predicted-free instances (ties
 * to the first candidate); the request's own batch is sized by its
 * backlog remainder plus the arrivals expected within the batching
 * timeout, and the expected batch-fill wait
 * min(timeout, slots-remaining / arrival-rate) is added on top. A
 * b-request dispatch takes the calibrated service time of the
 * smallest rung fitting b. With no candidates nothing can serve
 * the request: 1e9 s.
 */
double predictSojournSeconds(const InstancePool &pool,
                             const std::vector<int> &candidates,
                             const EngineVersion &version, int target,
                             const BatchPolicy &policy,
                             int queued_ahead, double now_s,
                             double arrival_rate_hz);

/**
 * The arrival path of serve and fleet: record the arrival at `t` in
 * `queue`'s rate estimate, then shed `r` (outcome kShed, returns
 * false) when no candidate can serve it or, with `admission` on,
 * when its predicted sojourn on the backend (same arguments as
 * dispatchBatches) exceeds its SLO — deadline-infeasible work is
 * rejected while it is still cheap. Otherwise `r` joins `queue` at
 * `t` and the call returns true; dispatching is the caller's next
 * step.
 */
bool admitArrival(Request &r, double t, RequestQueue &queue,
                  bool admission, const InstancePool &pool,
                  const std::vector<int> &candidates,
                  const EngineVersion &version, int target,
                  const BatchPolicy &policy);

/**
 * Seeded workload: one arrival stream per model (forked from the
 * seed's "workload" lineage, in model order) merged into one table
 * ordered and numbered by arrival time. Config needs `arrivals` and
 * `slo_ms`.
 */
template <typename Config>
std::vector<Request>
requestTable(const std::vector<Config> &models, double duration_s,
             std::uint64_t seed)
{
    Rng root(seed);
    Rng workload_rng = root.fork("workload");
    std::vector<std::pair<double, int>> merged;
    for (std::size_t m = 0; m < models.size(); m++) {
        Rng rng = workload_rng.fork(m);
        for (double t :
             generateArrivals(models[m].arrivals, duration_s, rng))
            merged.emplace_back(t, static_cast<int>(m));
    }
    std::sort(merged.begin(), merged.end());
    std::vector<Request> requests;
    requests.reserve(merged.size());
    for (const auto &[t, m] : merged) {
        Request r;
        r.id = static_cast<std::int64_t>(requests.size());
        r.model = m;
        r.arrival_s = t;
        r.slo_ms = models[static_cast<std::size_t>(m)].slo_ms;
        requests.push_back(r);
    }
    return requests;
}

/** Enqueues one dispatch on its context; returns its events. */
using IssueFn =
    std::function<runtime::InferenceHandle(runtime::ExecutionContext &)>;

/**
 * One instance's dispatch plan as the replay issues it. Each
 * dispatch is released at its planned time on `inst->stream`
 * (delayUntil) and issued by `issue` through an ExecutionContext
 * bound to `ctx_stream`, created on first use per (version, engine)
 * and kept for the whole replay: through a hot-swap, batches planned
 * on the incumbent drain on its contexts while new batches run on
 * the candidate's. The engines are `(*versions)[pd.version]
 * .sets[target]`; the simulator's ops point at their kernel
 * descriptors. The replay writes each dispatch's events into the
 * plan.
 */
struct PlanSource
{
    Instance *inst = nullptr;
    const std::vector<EngineVersion> *versions = nullptr;
    int target = 0;
    int ctx_stream = 0;
    IssueFn issue;
};

/** Simulated seconds between the windowed replay's horizons. */
inline constexpr double kReplayWindowS = 1.0;

/**
 * Replay `sources` on `sim` one window at a time, so live ops stay
 * O(in flight) rather than O(simulated duration). Each window
 * enqueues, per source, every dispatch released before the horizon
 * plus the first one at or after it, then runs the simulator up to
 * the horizon; the last window drains with run(). Because every
 * source with future work keeps a dispatch enqueued beyond the
 * horizon, each of its streams is busy when the simulator pauses,
 * so later enqueues never change admission order, delay tie-breaks
 * or any op's start time: the result is the one an
 * enqueue-everything-then-run() replay produces, bit for bit.
 */
void replayPlans(gpusim::GpuSim &sim,
                 const std::vector<PlanSource> &sources);

/** One simulator per device, in device order. */
using DeviceSims = std::vector<std::unique_ptr<gpusim::GpuSim>>;

/**
 * Replay every device's plan sources (`sources[d]` on `sims[d]`)
 * under the trace policy. With one thread the devices replay
 * serially in index order, each inside a `span` labelled with its
 * device; with more they run concurrently on a ThreadPool inside
 * one `span`, each simulator buffering its histogram records and
 * committing them in device order afterwards, so reports, metric
 * snapshots and traces are byte-identical at any thread count.
 * `wall_s`, when given, receives each device's replay wall time
 * (enqueue included). Returns the pool's stats when a pool ran.
 */
std::optional<PoolStats>
runDevices(const DeviceSims &sims,
           const std::vector<std::vector<PlanSource>> &sources,
           const std::vector<gpusim::DeviceSpec> &devices,
           int sim_threads, gpusim::TraceMode trace_mode,
           int trace_sample_every, const std::string &span,
           std::vector<double> *wall_s = nullptr);

/** Per-device serving outcome. */
struct DeviceStats
{
    std::string device;
    int instances = 0;
    double sm_util_pct = 0.0;   //!< tegrastats GR3D analogue
    double copy_busy_pct = 0.0;
    double makespan_s = 0.0;    //!< drain time of the replay
    std::int64_t ram_used_bytes = 0;
    std::int64_t ram_budget_bytes = 0;
};

/**
 * Each device's outcome after the replay, publishing
 * `<prefix>.device.{sm_util_pct,copy_busy_pct,instances}` gauges
 * labelled with the device name and index.
 */
std::vector<DeviceStats>
deviceReport(const DeviceSims &sims,
             const std::vector<gpusim::DeviceSpec> &devices,
             const InstancePool &pool, const std::string &prefix);

/** The `"devices"` array of a serve or stream report. */
void writeDevicesJson(std::ostream &os,
                      const std::vector<DeviceStats> &devices);

/**
 * Write a merged chrome://tracing timeline to `path`: the host spans,
 * one process per device simulator, and `overlay` spans on the
 * simulated clock under the process `overlay_name`.
 */
void saveDeviceTraces(const std::string &path, const DeviceSims &sims,
                      const std::vector<gpusim::DeviceSpec> &devices,
                      const std::vector<profile::SimSpan> &overlay,
                      const std::string &overlay_name);

} // namespace edgert::serve

#endif // EDGERT_SERVE_SERVING_HH

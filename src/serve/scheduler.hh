#ifndef EDGERT_SERVE_SCHEDULER_HH
#define EDGERT_SERVE_SCHEDULER_HH

/**
 * @file
 * Engine-instance pool and placement for EdgeServe, EdgeFleet (a
 * node is one device) and EdgeStream.
 *
 * Each model is prebuilt at power-of-two batch sizes up to its
 * max_batch (TensorRT engines are static-shape: a batch of b runs
 * on the smallest prebuilt engine >= b). An *instance* is one
 * execution context bound to its own stream on one device — the
 * pool places the requested instances per device, bounded by
 * `runtime::contextFootprintBytes` of the largest engine against
 * the device's RAM budget, and tracks the dispatch plan the control
 * loop builds for the execution replay.
 */

#include <cstdint>
#include <vector>

#include "core/engine.hh"
#include "gpusim/device.hh"
#include "gpusim/sim.hh"

namespace edgert::serve {

/**
 * Power-of-two engine-batch ladder covering [1, max_batch]: 1, 2,
 * 4, ... up to the smallest power of two >= max_batch. Every server
 * (node-local or fleet) prebuilds one engine per rung.
 */
std::vector<int> engineBatchLadder(int max_batch);

/** One model's prebuilt engines on one device, batch ascending. */
struct EngineSet
{
    std::vector<core::Engine> engines;
    std::vector<int> batches; //!< batch size of engines[i]

    /** Calibrated predicted service seconds of engines[i]. */
    std::vector<double> service_s;

    /** Index of the smallest engine fitting `batch` requests. */
    int indexFor(int batch) const;

    /** Footprint of the largest (most expensive) engine. */
    std::int64_t maxFootprintBytes() const;
};

/** One batch dispatch decided by the control loop. */
struct PlannedDispatch
{
    double t_s = 0.0;       //!< release (batch-cut) time
    int engine_idx = 0;     //!< into the instance's EngineSet
    int version = 0;        //!< engine version (hot-swap lineage)
    int batch = 0;          //!< actual request count (<= engine batch)
    std::vector<std::int64_t> request_ids;
    double predicted_service_s = 0.0;

    // Filled during the execution replay. The stage events
    // (upload_done, compute_done) come from the staged enqueue and
    // feed EdgeWatch's per-request attribution.
    gpusim::EventId begin = -1;
    gpusim::EventId upload_done = -1;
    gpusim::EventId compute_done = -1;
    gpusim::EventId end = -1;
};

/** One engine instance: a stream-bound context slot on a device. */
struct Instance
{
    int model = 0;
    int device = 0;
    int stream = 0;               //!< on the device's simulator
    double predicted_free_s = 0.0; //!< control-plane estimate
    std::vector<PlannedDispatch> plan;
};

/** RAM-bounded instance placement across the device fleet. */
class InstancePool
{
  public:
    /**
     * @param devices      The simulated devices (fleet: one per node).
     * @param ram_fraction Share of each device's RAM available for
     *        execution contexts (the rest models the OS, CUDA and
     *        the framework itself).
     */
    InstancePool(const std::vector<gpusim::DeviceSpec> &devices,
                 double ram_fraction);

    /**
     * Place up to `want` instances of `model` on `device`, each
     * costing `footprint_bytes`; stops at the RAM budget. Each
     * instance takes its device's next stream ordinal (0 for the
     * device's first instance, then 1, 2, ...). Returns the number
     * actually placed.
     */
    int place(int model, int device, std::int64_t footprint_bytes,
              int want);

    std::vector<Instance> &instances() { return instances_; }
    const std::vector<Instance> &instances() const
    {
        return instances_;
    }

    /** Pool indices of the instances serving `model`, ascending. */
    const std::vector<int> &instancesOf(int model) const;

    /** Pool indices of `model`'s instances on `device`, ascending. */
    const std::vector<int> &instancesOf(int model, int device) const;

    /**
     * The instance among `candidates` (ascending pool indices) with
     * the earliest predicted_free_s <= now_s + 1e-12 s (ties to the
     * lowest index), or -1 when all are predicted busy.
     */
    int freeInstance(const std::vector<int> &candidates,
                     double now_s) const;

    /** Bytes of context footprint placed on `device`. */
    std::int64_t ramUsedBytes(int device) const;

    /** Context RAM budget of `device`: ram_fraction of its RAM in
     *  GiB-based bytes. */
    std::int64_t ramBudgetBytes(int device) const;

  private:
    std::vector<std::int64_t> ram_budget_;
    std::vector<std::int64_t> ram_used_;
    std::vector<int> placed_on_; //!< instances per device
    std::vector<Instance> instances_;
    std::vector<std::vector<int>> by_model_;
    std::vector<std::vector<std::vector<int>>> by_device_model_;
};

} // namespace edgert::serve

#endif // EDGERT_SERVE_SCHEDULER_HH

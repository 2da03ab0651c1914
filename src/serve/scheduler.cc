#include "serve/scheduler.hh"

#include <algorithm>

#include "common/logging.hh"
#include "runtime/context.hh"

namespace edgert::serve {

std::vector<int>
engineBatchLadder(int max_batch)
{
    std::vector<int> out;
    int b = 1;
    while (b < max_batch) {
        out.push_back(b);
        b *= 2;
    }
    out.push_back(b); // smallest power of two >= max_batch
    return out;
}

int
EngineSet::indexFor(int batch) const
{
    for (std::size_t i = 0; i < batches.size(); i++)
        if (batches[i] >= batch)
            return static_cast<int>(i);
    panic("no prebuilt engine fits batch ", batch, " (largest is ",
          batches.empty() ? 0 : batches.back(), ")");
}

std::int64_t
EngineSet::maxFootprintBytes() const
{
    std::int64_t max_fp = 0;
    for (const auto &eng : engines)
        max_fp = std::max(max_fp,
                          runtime::contextFootprintBytes(eng));
    return max_fp;
}

InstancePool::InstancePool(
    const std::vector<gpusim::DeviceSpec> &devices,
    double ram_fraction)
    : ram_used_(devices.size(), 0),
      placed_on_(devices.size(), 0),
      by_device_model_(devices.size())
{
    for (const auto &spec : devices)
        ram_budget_.push_back(static_cast<std::int64_t>(
            spec.ram_gb * 1024.0 * 1024.0 * 1024.0 * ram_fraction));
}

int
InstancePool::place(int model, int device,
                    std::int64_t footprint_bytes, int want)
{
    const auto mi = static_cast<std::size_t>(model);
    const auto di = static_cast<std::size_t>(device);
    if (mi >= by_model_.size())
        by_model_.resize(mi + 1);
    auto &on_device = by_device_model_.at(di);
    if (mi >= on_device.size())
        on_device.resize(mi + 1);

    int placed = 0;
    while (placed < want &&
           ram_used_[di] + footprint_bytes <= ram_budget_[di]) {
        ram_used_[di] += footprint_bytes;
        Instance inst;
        inst.model = model;
        inst.device = device;
        inst.stream = placed_on_[di]++;
        const int idx = static_cast<int>(instances_.size());
        by_model_[mi].push_back(idx);
        on_device[mi].push_back(idx);
        instances_.push_back(std::move(inst));
        placed++;
    }
    return placed;
}

namespace {

const std::vector<int> kNoInstances;

} // namespace

const std::vector<int> &
InstancePool::instancesOf(int model) const
{
    if (static_cast<std::size_t>(model) >= by_model_.size())
        return kNoInstances;
    return by_model_[static_cast<std::size_t>(model)];
}

const std::vector<int> &
InstancePool::instancesOf(int model, int device) const
{
    const auto &on_device =
        by_device_model_.at(static_cast<std::size_t>(device));
    if (static_cast<std::size_t>(model) >= on_device.size())
        return kNoInstances;
    return on_device[static_cast<std::size_t>(model)];
}

int
InstancePool::freeInstance(const std::vector<int> &candidates,
                           double now_s) const
{
    int best = -1;
    double best_free = 0.0;
    for (int idx : candidates) {
        const Instance &inst =
            instances_[static_cast<std::size_t>(idx)];
        if (inst.predicted_free_s > now_s + 1e-12)
            continue;
        if (best < 0 || inst.predicted_free_s < best_free) {
            best = idx;
            best_free = inst.predicted_free_s;
        }
    }
    return best;
}

std::int64_t
InstancePool::ramUsedBytes(int device) const
{
    return ram_used_.at(static_cast<std::size_t>(device));
}

std::int64_t
InstancePool::ramBudgetBytes(int device) const
{
    return ram_budget_.at(static_cast<std::size_t>(device));
}

} // namespace edgert::serve

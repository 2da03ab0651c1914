#include "runtime/context.hh"

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace edgert::runtime {

namespace {

obs::Counter
runtimeCounter(const char *name, const core::Engine &engine)
{
    return obs::MetricRegistry::global().counter(
        name, {{"model", engine.modelName()}});
}

} // namespace

ExecutionContext::ExecutionContext(const core::Engine &engine,
                                   gpusim::GpuSim &sim, int stream)
    : engine_(&engine), sim_(&sim), stream_(stream)
{
    EDGERT_SPAN("context_setup",
                {{"model", engine.modelName()},
                 {"stream", std::to_string(stream)}});
}

void
ExecutionContext::countInference()
{
    // Resolved on the first enqueue rather than in the constructor,
    // so a context that never enqueues adds no zero-valued series
    // to a metric snapshot.
    if (!enqueued_)
        enqueued_ =
            runtimeCounter("runtime.inference.enqueued", *engine_);
    enqueued_->add();
}

void
ExecutionContext::enqueueWeightUpload()
{
    std::int64_t bytes = engine_->weightBytes();
    int transfers = engine_->weightTransfers();
    if (bytes <= 0)
        return;
    sim_->memcpyH2D(stream_, static_cast<std::uint64_t>(bytes),
                    std::max(1, transfers), "engine_weights_h2d");
    runtimeCounter("runtime.weight_upload.bytes", *engine_)
        .add(bytes);
}

InferenceHandle
ExecutionContext::enqueueInference(bool copy_input, bool copy_output,
                                   bool staged)
{
    countInference();
    InferenceHandle h;
    h.begin = sim_->recordEvent(stream_);
    if (copy_input) {
        for (const auto &in : engine_->inputs())
            sim_->memcpyH2D(stream_,
                            static_cast<std::uint64_t>(in.bytes), 1,
                            "input_h2d:" + in.name);
    }
    if (staged)
        h.upload_done = sim_->recordEvent(stream_);
    for (const auto &step : engine_->steps())
        for (const auto &k : step.kernels)
            sim_->launchKernel(stream_, k);
    if (staged)
        h.compute_done = sim_->recordEvent(stream_);
    if (copy_output) {
        for (const auto &out : engine_->outputs())
            sim_->memcpyD2H(stream_,
                            static_cast<std::uint64_t>(out.bytes), 1,
                            "output_d2h:" + out.name);
    }
    h.end = sim_->recordEvent(stream_);
    return h;
}

InferenceHandle
ExecutionContext::enqueuePipelinedInference()
{
    countInference();
    if (copy_stream_ < 0)
        copy_stream_ = sim_->createStream();
    // Next frame's input upload and previous frame's output download
    // overlap with this frame's kernels (double buffering through
    // pre-pinned ring buffers).
    for (const auto &in : engine_->inputs())
        sim_->memcpyH2D(copy_stream_,
                        static_cast<std::uint64_t>(in.bytes), 1,
                        "input_h2d:" + in.name, /*pinned=*/true);
    for (const auto &out : engine_->outputs())
        sim_->memcpyD2H(copy_stream_,
                        static_cast<std::uint64_t>(out.bytes), 1,
                        "output_d2h:" + out.name, /*pinned=*/true);

    InferenceHandle h;
    h.begin = sim_->recordEvent(stream_);
    for (const auto &step : engine_->steps())
        for (const auto &k : step.kernels)
            sim_->launchKernel(stream_, k);
    h.end = sim_->recordEvent(stream_);
    return h;
}

InferenceHandle
ExecutionContext::enqueueStagedPipelined(int upload_stream,
                                         int download_stream)
{
    countInference();
    InferenceHandle h;
    h.begin = sim_->recordEvent(upload_stream);
    for (const auto &in : engine_->inputs())
        sim_->memcpyH2D(upload_stream,
                        static_cast<std::uint64_t>(in.bytes), 1,
                        "input_h2d:" + in.name, /*pinned=*/true);
    h.upload_done = sim_->recordEvent(upload_stream);

    sim_->waitEvent(stream_, h.upload_done);
    for (const auto &step : engine_->steps())
        for (const auto &k : step.kernels)
            sim_->launchKernel(stream_, k);
    h.compute_done = sim_->recordEvent(stream_);

    sim_->waitEvent(download_stream, h.compute_done);
    for (const auto &out : engine_->outputs())
        sim_->memcpyD2H(download_stream,
                        static_cast<std::uint64_t>(out.bytes), 1,
                        "output_d2h:" + out.name, /*pinned=*/true);
    h.end = sim_->recordEvent(download_stream);
    return h;
}

void
ExecutionContext::enqueueHostGap(double seconds)
{
    if (seconds > 0.0)
        sim_->hostDelay(stream_, seconds);
}

std::int64_t
contextFootprintBytes(const core::Engine &engine)
{
    // Weights + an activation arena (TensorRT reserves the worst-case
    // region pool, roughly 6x the largest I/O binding) + fixed
    // per-context bookkeeping.
    std::int64_t io = 0;
    for (const auto &in : engine.inputs())
        io += in.bytes;
    for (const auto &out : engine.outputs())
        io += out.bytes;
    return engine.weightBytes() + 6 * io + (32 << 20);
}

} // namespace edgert::runtime

#include "nn/workloads.hpp"

#include <array>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/worksteal.hpp"
#include "nn/synthesis.hpp"
#include "nn/workload_io.hpp"

namespace bitwave {

namespace {

/// Append a layer whose weights a PendingWorkload synthesizes later.
void
add_layer(WorkloadBlueprint &bp, LayerDesc desc, const WeightProfile &profile,
          double act_sparsity)
{
    WorkloadLayer layer;
    layer.desc = std::move(desc);
    layer.weight_scale = 0.02f;  // representative per-tensor scale
    layer.activation_sparsity = act_sparsity;
    bp.skeleton.layers.push_back(std::move(layer));
    bp.profiles.push_back(profile);
}

/**
 * Weight profile for a CNN layer at relative depth @p depth (0..1).
 * Later layers are trained toward smaller effective magnitudes (more
 * redundancy), which per-channel PTQ turns into more peaked Int8 codes —
 * the gradient that makes late layers flip-tolerant in Fig. 6.
 */
WeightProfile
cnn_profile(double depth, double zero_prob, double base_scale = 7.0,
            double scale_slope = 3.0)
{
    WeightProfile p;
    p.distribution = WeightDistribution::kLaplacian;
    p.scale = base_scale - scale_slope * depth;  // broader early, peaked late
    p.zero_probability = zero_prob;
    p.zero_avoidance = 0.8;
    return p;
}

}  // namespace

const char *
workload_name(WorkloadId id)
{
    switch (id) {
      case WorkloadId::kResNet18: return "ResNet18";
      case WorkloadId::kMobileNetV2: return "MobileNetV2";
      case WorkloadId::kCnnLstm: return "CNN-LSTM";
      case WorkloadId::kBertBase: return "Bert-Base";
    }
    return "?";
}

namespace {

WorkloadBlueprint
resnet18_blueprint()
{
    WorkloadBlueprint bp;
    Workload &w = bp.skeleton;
    w.name = "ResNet18";
    w.metric_name = "top-1";
    w.base_metric = 69.8;
    w.error_sensitivity = 2.0;

    // Stem. Input image has no value sparsity.
    add_layer(bp, make_conv("conv1", 64, 3, 112, 112, 7, 7, 2),
              cnn_profile(0.0, 0.03), 0.0);

    // Residual stages. Post-ReLU activation sparsity ~0.4 throughout.
    struct Stage { int channels, size, blocks; };
    const Stage stages[] = {{64, 56, 2}, {128, 28, 2},
                            {256, 14, 2}, {512, 7, 2}};
    int prev = 64;
    int conv_idx = 1;
    const int total_convs = 17;
    for (int s = 0; s < 4; ++s) {
        const auto &st = stages[s];
        for (int b = 0; b < st.blocks; ++b) {
            const bool down = s > 0 && b == 0;
            const int in_ch = b == 0 ? prev : st.channels;
            const double depth =
                static_cast<double>(conv_idx) / total_convs;
            // conv2 of the paper (first 3x3 of stage 1) carries ~20 %
            // zero values and a very peaked magnitude profile (Fig. 4).
            WeightProfile prof = cnn_profile(depth, 0.04);
            if (conv_idx == 1) {
                prof.scale = 3.0;
                prof.zero_probability = 0.05;
                prof.zero_avoidance = 0.0;
            }
            add_layer(bp,
                      make_conv(strprintf("l%d.%d.conv1", s + 1, b),
                                st.channels, in_ch, st.size, st.size, 3, 3,
                                down ? 2 : 1),
                      prof, 0.4);
            ++conv_idx;
            add_layer(bp,
                      make_conv(strprintf("l%d.%d.conv2", s + 1, b),
                                st.channels, st.channels, st.size, st.size,
                                3, 3, 1),
                      cnn_profile(static_cast<double>(conv_idx) / total_convs,
                                  0.04),
                      0.4);
            ++conv_idx;
            if (down) {
                add_layer(bp,
                          make_pointwise(strprintf("l%d.%d.down", s + 1, b),
                                         st.channels, prev, st.size, st.size),
                          cnn_profile(depth, 0.04), 0.4);
            }
        }
        prev = st.channels;
    }

    add_layer(bp, make_linear("fc", 1000, 512), cnn_profile(1.0, 0.04), 0.4);
    return bp;
}

WorkloadBlueprint
mobilenet_v2_blueprint()
{
    WorkloadBlueprint bp;
    Workload &w = bp.skeleton;
    w.name = "MobileNetV2";
    w.metric_name = "top-1";
    w.base_metric = 71.9;
    w.error_sensitivity = 6.0;

    add_layer(bp, make_conv("conv0", 32, 3, 112, 112, 3, 3, 2),
              cnn_profile(0.0, 0.03, 6.0), 0.0);

    // Inverted residual settings (t, c, n, s) from the MobileNetV2 paper.
    struct Block { int t, c, n, s; };
    const Block cfg[] = {{1, 16, 1, 1},  {6, 24, 2, 2},  {6, 32, 3, 2},
                         {6, 64, 4, 2},  {6, 96, 3, 1},  {6, 160, 3, 2},
                         {6, 320, 1, 1}};
    int in_ch = 32;
    int size = 112;
    int layer_no = 1;
    const int total = 52;
    for (const auto &blk : cfg) {
        for (int r = 0; r < blk.n; ++r) {
            const int stride = r == 0 ? blk.s : 1;
            const int exp_ch = in_ch * blk.t;
            const int out_size = stride == 2 ? size / 2 : size;
            const double depth = static_cast<double>(layer_no) / total;
            if (blk.t != 1) {
                add_layer(bp,
                          make_pointwise(strprintf("L.%d.pw_exp", layer_no),
                                         exp_ch, in_ch, size, size),
                          cnn_profile(depth, 0.03, 6.0), 0.35);
                ++layer_no;
            }
            add_layer(bp,
                      make_depthwise(strprintf("L.%d.dw", layer_no), exp_ch,
                                     out_size, out_size, 3, stride),
                      cnn_profile(depth, 0.03, 6.0), 0.35);
            ++layer_no;
            // Projection layer has a linear (no ReLU) output, but its
            // *input* comes from ReLU6.
            add_layer(bp,
                      make_pointwise(strprintf("L.%d.pw_proj", layer_no),
                                     blk.c, exp_ch, out_size, out_size),
                      cnn_profile(depth, 0.03, 6.0), 0.35);
            ++layer_no;
            in_ch = blk.c;
            size = out_size;
        }
    }

    add_layer(bp, make_pointwise("L.51.conv_last", 1280, 320, 7, 7),
              cnn_profile(1.0, 0.03, 6.0), 0.35);
    add_layer(bp, make_linear("fc", 1000, 1280),
              cnn_profile(1.0, 0.03, 6.0), 0.35);
    return bp;
}

WorkloadBlueprint
cnn_lstm_blueprint(std::int64_t timesteps)
{
    WorkloadBlueprint bp;
    Workload &w = bp.skeleton;
    w.name = "CNN-LSTM";
    w.metric_name = "PESQ";
    w.base_metric = 3.20;
    w.error_sensitivity = 1.6;

    // Conv front-end over the spectrogram (257 bins x T frames).
    add_layer(bp, make_conv("conv1", 32, 1, 128, timesteps, 5, 5, 2),
              cnn_profile(0.1, 0.05, 5.0), 0.0);
    add_layer(bp, make_conv("conv2", 64, 32, 64, timesteps, 3, 3, 2),
              cnn_profile(0.2, 0.05, 5.0), 0.4);
    // Feature projection into the recurrent stack.
    add_layer(bp, make_linear("fc_in", 256, 256, timesteps),
              cnn_profile(0.4, 0.05, 4.0), 0.4);
    // LSTM stack: sigmoid/tanh gates yield near-zero activation sparsity,
    // the property that sinks value-sparsity accelerators on this net.
    add_layer(bp, make_lstm("LSTM.0", 256, 256, timesteps),
              cnn_profile(0.7, 0.06, 2.8, 0.0), 0.05);
    add_layer(bp, make_lstm("LSTM.1", 256, 256, timesteps),
              cnn_profile(0.9, 0.06, 2.8, 0.0), 0.05);
    add_layer(bp, make_linear("fc_out", 257, 256, timesteps),
              cnn_profile(1.0, 0.05, 3.0), 0.05);
    return bp;
}

WorkloadBlueprint
bert_base_blueprint(std::int64_t tokens)
{
    WorkloadBlueprint bp;
    Workload &w = bp.skeleton;
    w.name = "Bert-Base";
    w.metric_name = "F1";
    w.base_metric = 88.5;
    w.error_sensitivity = 0.25;

    // Transformer weights are broader / closer to Gaussian than conv
    // weights: the original Int8 model has few zero bit columns
    // (Section III-D), which is why BERT needs Bit-Flip to benefit.
    WeightProfile attn;
    attn.distribution = WeightDistribution::kGaussian;
    attn.scale = 28.0;
    attn.zero_probability = 0.005;
    attn.zero_avoidance = 0.5;
    attn.kernel_gain_sigma = 0.3;
    WeightProfile ffn = attn;
    ffn.scale = 24.0;

    const std::int64_t h = 768;
    for (int l = 0; l < 12; ++l) {
        // bert.encoder.layer.1 is especially flip-sensitive (Fig. 6(d)):
        // give the early layers slightly broader weights.
        WeightProfile layer_attn = attn;
        if (l >= 1 && l <= 3) {
            layer_attn.scale = 34.0;
        }
        add_layer(bp, make_linear(strprintf("layer.%d.q", l), h, h, tokens),
                  layer_attn, 0.0);
        add_layer(bp, make_linear(strprintf("layer.%d.k", l), h, h, tokens),
                  layer_attn, 0.0);
        add_layer(bp, make_linear(strprintf("layer.%d.v", l), h, h, tokens),
                  layer_attn, 0.0);
        add_layer(bp,
                  make_linear(strprintf("layer.%d.attn_out", l), h, h,
                              tokens),
                  layer_attn, 0.0);
        // GeLU leaves ~10 % exact zeros after quantization.
        add_layer(bp,
                  make_linear(strprintf("layer.%d.ffn_in", l), 4 * h, h,
                              tokens),
                  ffn, 0.0);
        add_layer(bp,
                  make_linear(strprintf("layer.%d.ffn_out", l), h, 4 * h,
                              tokens),
                  ffn, 0.10);
    }
    return bp;
}

/// Materialize every layer of @p bp from @p seed.
Workload
build(WorkloadBlueprint bp, std::uint64_t seed)
{
    return PendingWorkload(std::move(bp), seed).release();
}

/// The blueprint of @p id at its default input size.
WorkloadBlueprint
default_blueprint(WorkloadId id)
{
    switch (id) {
      case WorkloadId::kResNet18: return resnet18_blueprint();
      case WorkloadId::kMobileNetV2: return mobilenet_v2_blueprint();
      case WorkloadId::kCnnLstm: return cnn_lstm_blueprint(100);
      case WorkloadId::kBertBase: return bert_base_blueprint(4);
    }
    fatal("unknown workload id");
}

}  // namespace

PendingWorkload::PendingWorkload(WorkloadId id, std::uint64_t seed)
    : PendingWorkload(default_blueprint(id), seed)
{
}

PendingWorkload::PendingWorkload(WorkloadBlueprint blueprint,
                                 std::uint64_t seed)
    : workload_(std::move(blueprint.skeleton)),
      seed_(seed),
      profiles_(std::move(blueprint.profiles)),
      state_(std::make_unique<std::atomic<std::uint32_t>[]>(
          workload_.layers.size())),
      missing_(workload_.layers.size())
{
    if (profiles_.size() != workload_.layers.size()) {
        fatal("PendingWorkload: %zu profiles for %zu layers",
              profiles_.size(), workload_.layers.size());
    }
    if (workload_.layers.empty()) {
        finish();
    }
}

PendingWorkload::PendingWorkload(Workload complete)
    : workload_(std::move(complete)), complete_(true)
{
}

PendingWorkload::Claim
PendingWorkload::claim(std::size_t i)
{
    static metrics::Counter &synthesized =
        metrics::counter("nn.layers_synthesized");
    if (complete_.load(std::memory_order_acquire)) {
        return Claim::kReady;
    }
    std::atomic<std::uint32_t> &state = state_[i];
    std::uint32_t found = kPending;
    if (!state.compare_exchange_strong(found, kBuilding,
                                       std::memory_order_acquire,
                                       std::memory_order_acquire)) {
        return found == kReady ? Claim::kReady : Claim::kBusy;
    }
    WorkloadLayer &layer = workload_.layers[i];
    try {
        Rng rng(hash_combine(hash_combine(kFnvBasis, seed_),
                             static_cast<std::uint64_t>(i)));
        layer.weights = synthesize_weights(layer.desc, profiles_[i], rng);
    } catch (...) {
        state.store(kPending, std::memory_order_release);
        state.notify_all();
        throw;
    }
    layer.weights_hash = layer.compute_weights_hash();
    synthesized.inc();
    // acq_rel: the last lander sees every other layer's hash.
    if (missing_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        finish();
    }
    state.store(kReady, std::memory_order_release);
    state.notify_all();
    return Claim::kBuilt;
}

bool
PendingWorkload::materialize(std::size_t i)
{
    for (;;) {
        switch (claim(i)) {
          case Claim::kBuilt: return true;
          case Claim::kReady: return false;
          case Claim::kBusy:
            state_[i].wait(kBuilding, std::memory_order_acquire);
            break;
        }
    }
}

bool
PendingWorkload::try_materialize(std::size_t i)
{
    return claim(i) == Claim::kBuilt;
}

void
PendingWorkload::finish()
{
    std::uint64_t h = fnv1a(workload_.name.data(), workload_.name.size());
    h = hash_combine(h, seed_);
    for (const auto &layer : workload_.layers) {
        h = hash_combine(h, layer.weights_hash);
    }
    workload_.content_hash = h;
    if (!save_path_.empty()) {
        save_workload(workload_, save_path_);  // best effort
    }
    complete_.store(true, std::memory_order_release);
}

const Workload &
PendingWorkload::complete()
{
    if (!complete_.load(std::memory_order_acquire)) {
        // The last layer turns ready only after finish() has run, so
        // once every layer is ready the network is complete.
        worksteal_for(workload_.layers.size(),
                      [&](std::size_t i) { materialize(i); });
    }
    return workload_;
}

Workload
PendingWorkload::release()
{
    complete();
    return std::move(workload_);
}

void
PendingWorkload::save_when_complete(std::string path)
{
    save_path_ = std::move(path);
}

Workload
build_resnet18(std::uint64_t seed)
{
    return build(resnet18_blueprint(), seed);
}

Workload
build_mobilenet_v2(std::uint64_t seed)
{
    return build(mobilenet_v2_blueprint(), seed);
}

Workload
build_cnn_lstm(std::uint64_t seed, std::int64_t timesteps)
{
    return build(cnn_lstm_blueprint(timesteps), seed);
}

Workload
build_bert_base(std::uint64_t seed, std::int64_t tokens)
{
    return build(bert_base_blueprint(tokens), seed);
}

Workload
build_workload(WorkloadId id, std::uint64_t seed)
{
    return PendingWorkload(id, seed).release();
}

Workload
build_workload_skeleton(WorkloadId id)
{
    return default_blueprint(id).skeleton;
}

namespace {

/// A cached workload is only served if it still matches the structure
/// the current builders would produce — a builder change (layer shapes,
/// topology, metadata) silently invalidates old cache entries instead
/// of silently serving them. Weight-profile-only changes are invisible
/// to the skeleton; bump workload_io's format version for those.
bool
matches_current_builder(const Workload &loaded, WorkloadId id)
{
    const Workload skeleton = build_workload_skeleton(id);
    if (loaded.name != skeleton.name ||
        loaded.metric_name != skeleton.metric_name ||
        loaded.base_metric != skeleton.base_metric ||
        loaded.error_sensitivity != skeleton.error_sensitivity ||
        loaded.layers.size() != skeleton.layers.size()) {
        return false;
    }
    for (std::size_t i = 0; i < skeleton.layers.size(); ++i) {
        const LayerDesc &a = loaded.layers[i].desc;
        const LayerDesc &b = skeleton.layers[i].desc;
        if (a.name != b.name || a.kind != b.kind || a.batch != b.batch ||
            a.k != b.k || a.c != b.c || a.oy != b.oy || a.ox != b.ox ||
            a.fy != b.fy || a.fx != b.fx || a.stride != b.stride ||
            loaded.layers[i].activation_sparsity !=
                skeleton.layers[i].activation_sparsity ||
            loaded.layers[i].weight_scale !=
                skeleton.layers[i].weight_scale) {
            return false;
        }
    }
    return true;
}

/// The shared seed-0x5eed network @p id: loaded whole from the on-disk
/// synthesis cache (BITWAVE_WORKLOAD_CACHE) when a valid entry exists,
/// otherwise pending, and saved there once its last layer lands.
std::shared_ptr<PendingWorkload>
open_shared(WorkloadId id)
{
    constexpr std::uint64_t kSeed = 0x5eed;
    const std::string dir = workload_cache_dir();
    if (dir.empty()) {
        return std::make_shared<PendingWorkload>(id, kSeed);
    }
    // Cold path housekeeping: sweep temp droppings of writers that died
    // mid-save, so the cache dir cannot fill with orphans under a
    // long-running service.
    remove_stale_temp_files(dir, /*max_age_seconds=*/600.0);
    const std::string path =
        workload_cache_path(dir, workload_name(id), kSeed);
    Workload loaded;
    if (load_cached_workload(path, &loaded) &&
        matches_current_builder(loaded, id)) {
        return std::make_shared<PendingWorkload>(std::move(loaded));
    }
    auto pending = std::make_shared<PendingWorkload>(id, kSeed);
    pending->save_when_complete(path);
    return pending;
}

}  // namespace

std::shared_ptr<PendingWorkload>
shared_network(WorkloadId id)
{
    // One slot per network, opened once under its own flag: concurrent
    // first touches of *different* networks never serialize, a warm
    // fetch is a flag check, and an open slot is never emptied.
    struct Slot
    {
        std::once_flag once;
        std::shared_ptr<PendingWorkload> network;
    };
    static std::array<Slot, std::size(kAllWorkloads)> slots;
    static metrics::Counter &hits = metrics::counter("cache.workloads.hits");
    static metrics::Counter &misses =
        metrics::counter("cache.workloads.misses");

    Slot &slot = slots[static_cast<std::size_t>(id)];
    bool opened = false;
    std::call_once(slot.once, [&] {
        slot.network = open_shared(id);
        opened = true;
    });
    (opened ? misses : hits).inc();
    return slot.network;
}

std::shared_ptr<const Workload>
shared_workload(WorkloadId id)
{
    std::shared_ptr<PendingWorkload> network = shared_network(id);
    const Workload &complete = network->complete();
    return std::shared_ptr<const Workload>(std::move(network), &complete);
}

const Workload &
get_workload(WorkloadId id)
{
    return *shared_workload(id);
}

}  // namespace bitwave

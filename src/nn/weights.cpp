#include "nn/weights.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>

#include "common/error.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"

namespace mw::nn {
namespace {

constexpr std::uint32_t kMagic = 0x4d575754;  // "MWWT"
constexpr std::uint32_t kVersion = 1;

/// Fan-in/out for a parameter tensor: dense (out,in); conv (f,c,k,k).
std::pair<std::size_t, std::size_t> fans(const Shape& shape) {
    if (shape.rank() == 2) return {shape[1], shape[0]};
    if (shape.rank() == 4) {
        const std::size_t receptive = shape[2] * shape[3];
        return {shape[1] * receptive, shape[0] * receptive};
    }
    return {shape.numel(), shape.numel()};
}

}  // namespace

void initialise_weights(Model& model, Rng& rng) {
    for (std::size_t li = 0; li < model.layer_count(); ++li) {
        Layer& layer = model.layer(li);
        const auto bindings = layer.param_bindings();
        if (bindings.empty()) continue;

        Activation act = Activation::kIdentity;
        if (auto* dense = dynamic_cast<Dense*>(&layer)) act = dense->activation();
        if (auto* conv = dynamic_cast<Conv2d*>(&layer)) act = conv->activation();

        for (const auto& b : bindings) {
            if (b.value->shape().rank() == 1) {
                b.value->fill(0.0F);  // bias
                continue;
            }
            const auto [fan_in, fan_out] = fans(b.value->shape());
            if (act == Activation::kRelu) {
                const float stddev = std::sqrt(2.0F / static_cast<float>(fan_in));
                b.value->fill_normal(rng, 0.0F, stddev);
            } else {
                const float limit = std::sqrt(6.0F / static_cast<float>(fan_in + fan_out));
                b.value->fill_uniform(rng, -limit, limit);
            }
        }
    }
}

void save_weights(const Model& model, const std::string& path) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw IoError("cannot open weights file for writing: " + path);

    std::vector<const Tensor*> tensors;
    auto& mutable_model = const_cast<Model&>(model);
    for (std::size_t li = 0; li < model.layer_count(); ++li) {
        for (const auto& b : mutable_model.layer(li).param_bindings()) {
            tensors.push_back(b.value);
        }
    }

    auto put_u32 = [&out](std::uint32_t v) {
        out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    auto put_u64 = [&out](std::uint64_t v) {
        out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    put_u32(kMagic);
    put_u32(kVersion);
    put_u64(tensors.size());
    for (const Tensor* t : tensors) {
        put_u64(t->numel());
        out.write(reinterpret_cast<const char*>(t->data()),
                  static_cast<std::streamsize>(t->numel() * sizeof(float)));
    }
    if (!out) throw IoError("write failed: " + path);
}

void load_weights(Model& model, const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw IoError("cannot open weights file: " + path);

    auto get_u32 = [&in]() {
        std::uint32_t v = 0;
        in.read(reinterpret_cast<char*>(&v), sizeof(v));
        return v;
    };
    auto get_u64 = [&in]() {
        std::uint64_t v = 0;
        in.read(reinterpret_cast<char*>(&v), sizeof(v));
        return v;
    };
    if (get_u32() != kMagic) throw IoError("bad magic in weights file: " + path);
    if (get_u32() != kVersion) throw IoError("unsupported weights version: " + path);

    std::vector<Tensor*> tensors;
    for (std::size_t li = 0; li < model.layer_count(); ++li) {
        for (const auto& b : model.layer(li).param_bindings()) tensors.push_back(b.value);
    }
    const std::uint64_t count = get_u64();
    if (count != tensors.size()) {
        throw IoError("weights file tensor count mismatch (architecture differs): " + path);
    }
    for (Tensor* t : tensors) {
        const std::uint64_t n = get_u64();
        if (n != t->numel()) throw IoError("weights tensor size mismatch: " + path);
        in.read(reinterpret_cast<char*>(t->data()),
                static_cast<std::streamsize>(n * sizeof(float)));
    }
    if (!in) throw IoError("truncated weights file: " + path);
}

}  // namespace mw::nn

// Tests for the core contribution: features, dataset building, predictor,
// oracle, dispatcher, trainer and the online adaptive scheduler.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <set>

#include "ml/random_forest.hpp"
#include "nn/model_builder.hpp"
#include "nn/weights.hpp"
#include "nn/zoo.hpp"
#include "sched/features.hpp"
#include "sched/oracle.hpp"
#include "sched/scheduler.hpp"
#include "sched/scheduler_trainer.hpp"

namespace {

using namespace mw;
using namespace mw::sched;

std::vector<nn::ModelSpec> small_zoo() {
    return {nn::zoo::simple(), nn::zoo::mnist_small(), nn::zoo::mnist_cnn()};
}

DatasetBuilderConfig small_config() {
    DatasetBuilderConfig config;
    config.batches = {8, 256, 8192, 65536};
    return config;
}

TEST(Policy, NamesRoundTrip) {
    for (const Policy p : {Policy::kMaxThroughput, Policy::kMinLatency, Policy::kMinEnergy}) {
        EXPECT_EQ(policy_from_name(policy_name(p)), p);
    }
    EXPECT_THROW(policy_from_name("powersave"), InvalidArgument);
}

TEST(Policy, ScoreOrientation) {
    device::Measurement fast;
    fast.submit_time = 0.0;
    fast.end_time = 1.0;
    fast.bytes_in = 1e6;
    fast.energy_j = 5.0;
    device::Measurement slow = fast;
    slow.end_time = 2.0;
    slow.energy_j = 2.0;
    EXPECT_GT(policy_score(Policy::kMaxThroughput, fast),
              policy_score(Policy::kMaxThroughput, slow));
    EXPECT_GT(policy_score(Policy::kMinLatency, fast), policy_score(Policy::kMinLatency, slow));
    EXPECT_GT(policy_score(Policy::kMinEnergy, slow), policy_score(Policy::kMinEnergy, fast));
}

TEST(Features, VectorLayout) {
    const nn::Model cnn = nn::build_model(nn::zoo::cifar10(), 1);
    const auto f = extract_features(Policy::kMinEnergy, cnn.desc(), 4096, true);
    ASSERT_EQ(f.size(), kFeatureCount);
    EXPECT_EQ(f[0], static_cast<double>(Policy::kMinEnergy));
    EXPECT_EQ(f[1], 1.0);  // is_cnn
    EXPECT_EQ(f[4], 3.0);  // vgg blocks
    EXPECT_EQ(f[5], 2.0);  // convs per block
    EXPECT_EQ(f[6], 3.0);  // filter size
    EXPECT_EQ(f[7], 2.0);  // pool size
    EXPECT_EQ(f[8], 4096.0);
    EXPECT_EQ(f[9], 1.0);
    EXPECT_EQ(feature_names().size(), kFeatureCount);
}

TEST(Features, FfnnHasNoCnnStructure) {
    const nn::Model ffnn = nn::build_model(nn::zoo::mnist_deep(), 1);
    const auto f = extract_features(Policy::kMaxThroughput, ffnn.desc(), 8, false);
    EXPECT_EQ(f[1], 0.0);
    EXPECT_EQ(f[4], 0.0);
    EXPECT_EQ(f[2], 6.0);  // depth
    EXPECT_EQ(f[9], 0.0);
}

TEST(DatasetBuilder, ShapeAndBookkeeping) {
    auto registry = device::DeviceRegistry::standard_testbed();
    const auto ds = build_scheduler_dataset(registry, small_zoo(), small_config());
    // 3 models x 4 batches x 2 states x 3 policies.
    EXPECT_EQ(ds.data.size(), 3U * 4 * 2 * 3);
    EXPECT_EQ(ds.data.features, kFeatureCount);
    EXPECT_EQ(ds.data.classes, 3U);
    EXPECT_EQ(ds.row_model.size(), ds.data.size());
    EXPECT_EQ(ds.device_names.size(), 3U);
    // Labels cover more than one device (no device rules them all).
    std::set<int> labels(ds.data.y.begin(), ds.data.y.end());
    EXPECT_GE(labels.size(), 2U);
}

TEST(DatasetBuilder, SplitByModelPartitions) {
    auto registry = device::DeviceRegistry::standard_testbed();
    const auto ds = build_scheduler_dataset(registry, small_zoo(), small_config());
    const auto [kept, held] = ds.split_by_model({"simple"});
    EXPECT_EQ(kept.data.size() + held.data.size(), ds.data.size());
    EXPECT_EQ(held.data.size(), ds.data.size() / 3);
    for (const auto& name : held.row_model) EXPECT_EQ(name, "simple");
    for (const auto& name : kept.row_model) EXPECT_NE(name, "simple");
}

TEST(DatasetBuilder, SharesSumToOne) {
    auto registry = device::DeviceRegistry::standard_testbed();
    const auto ds = build_scheduler_dataset(registry, small_zoo(), small_config());
    double sum = 0.0;
    for (const double s : ds.class_shares()) sum += s;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

/// Run `probe` through `model_name` on every device and require each output
/// to equal `reference.forward(probe)` bit for bit.
void expect_devices_serve(device::DeviceRegistry& registry, const std::string& model_name,
                          const nn::Model& reference, const Tensor& probe) {
    const Tensor expected = reference.forward(probe);
    for (device::Device* dev : registry.devices()) {
        const Tensor out = dev->run(model_name, probe, 0.0).outputs;
        ASSERT_EQ(out.shape(), expected.shape()) << dev->name();
        EXPECT_EQ(std::memcmp(out.data(), expected.data(), out.numel() * sizeof(float)), 0)
            << dev->name() << " serves weights other than the deployed model's";
    }
}

Tensor probe_batch(const nn::Model& model) {
    Rng rng(3);
    Tensor probe(model.input_shape(8));
    probe.fill_uniform(rng, 0.0F, 1.0F);
    return probe;
}

TEST(DatasetBuilder, ProfilesTheDeployedInstance) {
    auto registry = device::DeviceRegistry::standard_testbed();
    Dispatcher dispatcher(registry);
    dispatcher.register_model(nn::zoo::simple(), /*weight_seed=*/1);  // not model_seed
    dispatcher.deploy_all();
    const auto ds = build_scheduler_dataset(registry, {nn::zoo::simple()}, small_config());

    const nn::Model& deployed = dispatcher.model("simple");
    for (device::Device* dev : registry.devices()) {
        EXPECT_EQ(&dev->model("simple"), &deployed) << dev->name();
    }
    expect_devices_serve(registry, "simple", deployed, probe_batch(deployed));

    // Profiling reads the architecture only, so the rows equal those of a
    // registry on which the builder deployed its own seeded model.
    auto fresh = device::DeviceRegistry::standard_testbed();
    const auto built = build_scheduler_dataset(fresh, {nn::zoo::simple()}, small_config());
    EXPECT_EQ(ds.data.x, built.data.x);
    EXPECT_EQ(ds.data.y, built.data.y);
}

TEST(DatasetBuilder, KeepsWeightsLoadedFromAFile) {
    const std::string path =
        (std::filesystem::temp_directory_path() / "mw_test_sched_simple.weights").string();
    const nn::Model trained = nn::build_model(nn::zoo::simple(), 42);
    nn::save_weights(trained, path);

    auto registry = device::DeviceRegistry::standard_testbed();
    Dispatcher dispatcher(registry);
    dispatcher.register_model(nn::zoo::simple(), /*weight_seed=*/999);
    dispatcher.load_weights_from("simple", path);
    std::filesystem::remove(path);
    dispatcher.deploy("simple");
    (void)build_scheduler_dataset(registry, {nn::zoo::simple()}, small_config());

    expect_devices_serve(registry, "simple", trained, probe_batch(trained));
}

TEST(DatasetBuilder, RejectsAModelDeployedOnSomeDevices) {
    auto registry = device::DeviceRegistry::standard_testbed();
    registry.at("uhd630").load_model(
        std::make_shared<nn::Model>(nn::build_model(nn::zoo::simple(), 1)));
    try {
        (void)build_scheduler_dataset(registry, {nn::zoo::simple()}, small_config());
        FAIL() << "a partially deployed model was profiled";
    } catch (const InvalidArgument& e) {
        EXPECT_NE(std::string(e.what()).find("`simple`"), std::string::npos) << e.what();
    }
}

TEST(Oracle, AgreesWithExhaustiveScan) {
    auto registry = device::DeviceRegistry::standard_testbed();
    registry.load_model_everywhere(
        std::make_shared<nn::Model>(nn::build_model(nn::zoo::mnist_small(), 7)));
    Oracle oracle(registry);
    const auto decision = oracle.decide("mnist-small", 4096, GpuState::kWarm,
                                        Policy::kMaxThroughput);
    ASSERT_EQ(decision.all.size(), 3U);
    for (const auto& m : decision.all) {
        EXPECT_LE(m.throughput_bps(), decision.best().throughput_bps() + 1e-6);
    }
}

TEST(Oracle, SmallBatchFavoursCpuLargeBatchGpu) {
    auto registry = device::DeviceRegistry::standard_testbed();
    registry.load_model_everywhere(
        std::make_shared<nn::Model>(nn::build_model(nn::zoo::mnist_deep(), 7)));
    Oracle oracle(registry);
    EXPECT_EQ(oracle.decide("mnist-deep", 4, GpuState::kWarm, Policy::kMaxThroughput)
                  .best_device,
              "i7-8700");
    EXPECT_EQ(oracle.decide("mnist-deep", 65536, GpuState::kWarm, Policy::kMaxThroughput)
                  .best_device,
              "gtx1080ti");
}

TEST(Predictor, LearnsAndPredictsDataset) {
    auto registry = device::DeviceRegistry::standard_testbed();
    const auto ds = build_scheduler_dataset(registry, small_zoo(), small_config());
    DevicePredictor predictor(
        std::make_unique<ml::RandomForest>(
            ml::ForestConfig{.n_estimators = 50, .max_depth = 14, .seed = 3}),
        ds.device_names);
    predictor.fit(ds);
    // In-sample agreement should be near-perfect on a noise-free dataset
    // (bootstrap sampling keeps it just below 100%).
    std::size_t hits = 0;
    for (std::size_t i = 0; i < ds.data.size(); ++i) {
        hits += predictor.predict_row(ds.data.row(i)) == ds.device_of(ds.data.y[i]);
    }
    EXPECT_GT(static_cast<double>(hits) / static_cast<double>(ds.data.size()), 0.93);
}

TEST(Predictor, DeviceOrderMismatchRejected) {
    auto registry = device::DeviceRegistry::standard_testbed();
    const auto ds = build_scheduler_dataset(registry, small_zoo(), small_config());
    DevicePredictor predictor(
        std::make_unique<ml::RandomForest>(ml::ForestConfig{.n_estimators = 5}),
        {"a", "b", "c"});
    EXPECT_THROW(predictor.fit(ds), InvalidArgument);
}

TEST(Trainer, PaperGridHas1344Points) {
    EXPECT_EQ(paper_hyperparameter_grid().size(), 12U * 8 * 2 * 7);
    EXPECT_EQ(sample_grid(paper_hyperparameter_grid(), 10, 1).size(), 10U);
    EXPECT_EQ(sample_grid(small_hyperparameter_grid(), 1000, 1).size(),
              small_hyperparameter_grid().size());
}

TEST(Trainer, NestedCvProducesReasonableForest) {
    auto registry = device::DeviceRegistry::standard_testbed({.noise_sigma = 0.08});
    const auto ds = build_scheduler_dataset(registry, small_zoo(), small_config());
    ThreadPool pool(2);
    const auto trained = train_random_forest_scheduler(
        ds, sample_grid(small_hyperparameter_grid(), 4, 1), 3, 2, 7, &pool);
    EXPECT_GT(trained.cv.outer.accuracy, 0.75);
    EXPECT_GT(trained.cv.outer.weighted.f1, 0.7);
    EXPECT_FALSE(trained.chosen_params.empty());
    EXPECT_GT(trained.train_seconds, 0.0);
}

TEST(Trainer, ComparisonIncludesAllSevenRows) {
    auto registry = device::DeviceRegistry::standard_testbed({.noise_sigma = 0.05});
    const auto ds = build_scheduler_dataset(registry, small_zoo(), small_config());
    const auto rows = compare_scheduler_models(ds, nullptr, 7);
    ASSERT_EQ(rows.size(), 7U);
    EXPECT_EQ(rows[0].name, "Baseline (Random Selection)");
    // The forest must beat the random baseline decisively.
    double forest_acc = 0.0;
    double baseline_acc = 1.0;
    for (const auto& row : rows) {
        if (row.name == "Random Forest") forest_acc = row.accuracy;
        if (row.name.find("Baseline") != std::string::npos) baseline_acc = row.accuracy;
    }
    EXPECT_GT(forest_acc, baseline_acc + 0.3);
}

struct SchedulerFixture {
    device::DeviceRegistry registry = device::DeviceRegistry::standard_testbed();
    Dispatcher dispatcher{registry};
    SchedulerDataset dataset;

    SchedulerFixture() {
        for (const auto& spec : small_zoo()) dispatcher.register_model(spec, 7);
        dispatcher.deploy_all();
        dataset = build_scheduler_dataset(registry, small_zoo(), small_config());
    }

    OnlineScheduler make_scheduler(SchedulerConfig config = {}) {
        DevicePredictor predictor(
            std::make_unique<ml::RandomForest>(
                ml::ForestConfig{.n_estimators = 30, .seed = 5}),
            dataset.device_names);
        predictor.fit(dataset);
        return OnlineScheduler(dispatcher, std::move(predictor), dataset, config);
    }
};

TEST(Dispatcher, BuildDeployRun) {
    device::DeviceRegistry registry = device::DeviceRegistry::standard_testbed();
    Dispatcher dispatcher(registry);
    dispatcher.register_model(nn::zoo::simple(), 3);
    EXPECT_TRUE(dispatcher.has_model("simple"));
    EXPECT_THROW(dispatcher.register_model(nn::zoo::simple(), 3), InvalidArgument);
    dispatcher.deploy("simple");
    EXPECT_TRUE(registry.at("uhd630").has_model("simple"));

    Rng rng(1);
    Tensor x(dispatcher.model("simple").input_shape(4));
    x.fill_uniform(rng, 0.0F, 1.0F);
    const auto result = dispatcher.run_on("i7-8700", "simple", x, 0.0);
    EXPECT_EQ(result.outputs.shape()[1], 3U);
    EXPECT_THROW(dispatcher.run_on("i7-8700", "nope", x, 0.0), Error);
}

TEST(Scheduler, DecisionsMatchOracleOnCleanWorld) {
    SchedulerFixture fx;
    auto scheduler = fx.make_scheduler({.explore_probability = 0.0});

    device::DeviceRegistry truth_registry = device::DeviceRegistry::standard_testbed();
    for (const auto& spec : small_zoo()) {
        truth_registry.load_model_everywhere(
            std::make_shared<nn::Model>(nn::build_model(spec, 7)));
    }
    Oracle oracle(truth_registry);

    std::size_t hits = 0;
    std::size_t total = 0;
    for (const auto& model : {"simple", "mnist-small", "mnist-cnn"}) {
        for (const std::size_t batch : {8U, 256U, 8192U, 65536U}) {
            for (const Policy policy :
                 {Policy::kMaxThroughput, Policy::kMinLatency, Policy::kMinEnergy}) {
                fx.registry.at("gtx1080ti").force_warm();
                const auto decision =
                    scheduler.decide({model, batch, policy}, /*now=*/1000.0 * total);
                const auto ideal = oracle.decide(model, batch, GpuState::kWarm, policy);
                hits += decision.device_name == ideal.best_device;
                ++total;
            }
        }
    }
    // Train and test grids coincide and the world is noise-free.
    EXPECT_GT(static_cast<double>(hits) / static_cast<double>(total), 0.9);
}

TEST(Scheduler, SubmitExecutesOnPredictedDevice) {
    SchedulerFixture fx;
    auto scheduler = fx.make_scheduler({.explore_probability = 0.0});
    const auto outcome = scheduler.submit({"mnist-small", 65536, Policy::kMaxThroughput}, 0.0);
    EXPECT_EQ(outcome.measurement.device_name, outcome.decision.device_name);
    EXPECT_GT(outcome.measurement.throughput_bps(), 0.0);
    EXPECT_EQ(scheduler.decisions(), 1U);
}

TEST(Scheduler, RunReturnsRealOutputs) {
    SchedulerFixture fx;
    auto scheduler = fx.make_scheduler({.explore_probability = 0.0});
    Rng rng(2);
    Tensor x(fx.dispatcher.model("simple").input_shape(16));
    x.fill_uniform(rng, 0.0F, 1.0F);
    const auto result = scheduler.run({"simple", 16, Policy::kMinLatency}, x, 0.0);
    EXPECT_EQ(result.inference.outputs.shape(), Shape({16, 3}));
    // Probabilities per row sum to 1 (softmax head).
    for (std::size_t i = 0; i < 16; ++i) {
        float sum = 0.0F;
        for (std::size_t c = 0; c < 3; ++c) sum += result.inference.outputs.at(i, c);
        EXPECT_NEAR(sum, 1.0F, 1e-4F);
    }
}

TEST(Scheduler, ExplorationCollectsFeedbackAndRetrains) {
    SchedulerFixture fx;
    auto scheduler = fx.make_scheduler(
        {.explore_probability = 1.0, .retrain_after = 0, .seed = 3});
    for (int i = 0; i < 5; ++i) {
        scheduler.submit({"mnist-small", 256, Policy::kMinEnergy}, 1000.0 * i);
    }
    EXPECT_EQ(scheduler.explorations(), 5U);
    EXPECT_EQ(scheduler.pending_feedback(), 5U);
    EXPECT_EQ(scheduler.retrain(), 5U);
    EXPECT_EQ(scheduler.pending_feedback(), 0U);
    EXPECT_EQ(scheduler.retrains(), 1U);
    EXPECT_EQ(scheduler.retrain(), 0U);  // nothing left to fold
}

TEST(Scheduler, AutoRetrainAfterThreshold) {
    SchedulerFixture fx;
    auto scheduler = fx.make_scheduler(
        {.explore_probability = 1.0, .retrain_after = 3, .seed = 4});
    for (int i = 0; i < 7; ++i) {
        scheduler.submit({"simple", 64, Policy::kMinLatency}, 1000.0 * i);
    }
    EXPECT_GE(scheduler.retrains(), 2U);
}

TEST(Scheduler, AdaptsToThrottledDevice) {
    // After the dGPU slows 20x, exploration + weighted retraining must move
    // large-batch traffic off it.
    SchedulerFixture fx;
    auto scheduler = fx.make_scheduler(
        {.explore_probability = 1.0, .retrain_after = 6, .feedback_weight = 40, .seed = 5});

    const ScheduleRequest request{"mnist-small", 65536, Policy::kMinLatency};
    fx.registry.at("gtx1080ti").force_warm();
    const auto before = scheduler.decide(request, 0.0);
    EXPECT_EQ(before.device_name, "gtx1080ti");

    fx.registry.at("gtx1080ti").set_throttle(20.0);
    double now = 1000.0;
    for (int i = 0; i < 12; ++i) {
        fx.registry.at("gtx1080ti").force_warm();
        scheduler.submit(request, now);
        now += 1000.0;
    }
    fx.registry.at("gtx1080ti").force_warm();
    const auto after = scheduler.decide(request, now);
    EXPECT_NE(after.device_name, "gtx1080ti");
    EXPECT_GE(scheduler.retrains(), 1U);
}

TEST(PerPolicyPredictor, SpecialistsMatchDatasetLabels) {
    auto registry = device::DeviceRegistry::standard_testbed();
    const auto ds = build_scheduler_dataset(registry, small_zoo(), small_config());
    const ml::RandomForest proto(
        ml::ForestConfig{.n_estimators = 40, .max_depth = 12, .seed = 3});
    PerPolicyPredictor predictor(proto, ds.device_names);
    predictor.fit(ds);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < ds.data.size(); ++i) {
        hits += predictor.predict_row(ds.data.row(i)) == ds.device_of(ds.data.y[i]);
    }
    EXPECT_GT(static_cast<double>(hits) / static_cast<double>(ds.data.size()), 0.9);
}

TEST(PerPolicyPredictor, RejectsMismatchedDevices) {
    auto registry = device::DeviceRegistry::standard_testbed();
    const auto ds = build_scheduler_dataset(registry, small_zoo(), small_config());
    const ml::RandomForest proto(ml::ForestConfig{.n_estimators = 5});
    PerPolicyPredictor predictor(proto, {"x", "y", "z"});
    EXPECT_THROW(predictor.fit(ds), InvalidArgument);
}

TEST(PerPolicyPredictor, MissingPolicyRowsRejected) {
    auto registry = device::DeviceRegistry::standard_testbed();
    DatasetBuilderConfig config = small_config();
    config.policies = {Policy::kMaxThroughput};  // only one policy measured
    const auto ds = build_scheduler_dataset(registry, small_zoo(), config);
    const ml::RandomForest proto(ml::ForestConfig{.n_estimators = 5});
    PerPolicyPredictor predictor(proto, ds.device_names);
    EXPECT_THROW(predictor.fit(ds), InvalidArgument);
}

TEST(Scheduler, GpuStateProbeFeedsFeature) {
    SchedulerFixture fx;
    auto scheduler = fx.make_scheduler({.explore_probability = 0.0});
    fx.registry.at("gtx1080ti").force_warm();
    const auto warm = scheduler.decide({"mnist-small", 512, Policy::kMinLatency}, 0.0);
    EXPECT_TRUE(warm.gpu_was_warm);
    EXPECT_EQ(warm.features[9], 1.0);
    fx.registry.at("gtx1080ti").force_idle();
    const auto idle = scheduler.decide({"mnist-small", 512, Policy::kMinLatency}, 0.0);
    EXPECT_FALSE(idle.gpu_was_warm);
    EXPECT_EQ(idle.features[9], 0.0);
}

}  // namespace

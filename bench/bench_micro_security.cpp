// Micro-benchmarks for Recipe's shield_msg/verify_msg primitives
// (Algorithm 1) — the per-message cost of the transformation itself.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "attest/bundle.h"
#include "recipe/security.h"
#include "tee/enclave.h"
#include "tee/platform.h"

namespace {

using namespace recipe;

struct Fixture {
  tee::TeePlatform platform{1};
  tee::Enclave sender_enclave{platform, "code", 1};
  tee::Enclave receiver_enclave{platform, "code", 2};
  crypto::SymmetricKey root{Bytes(32, 0x77)};

  Fixture() {
    if (!attest::provision_preattested(sender_enclave, root).is_ok() ||
        !attest::provision_preattested(receiver_enclave, root).is_ok()) {
      std::abort();
    }
  }

  RecipeSecurity make_policy(tee::Enclave& enclave, NodeId id,
                             bool confidential) {
    RecipeSecurityConfig config;
    config.confidentiality = confidential;
    return RecipeSecurity(enclave, id, nullptr, nullptr, config);
  }
};

void BM_ShieldMsg(benchmark::State& state) {
  Fixture f;
  auto policy = f.make_policy(f.sender_enclave, NodeId{1}, false);
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.shield(NodeId{2}, ViewId{0},
                                           as_view(payload)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ShieldMsg)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ShieldVerifyRoundTrip(benchmark::State& state) {
  Fixture f;
  auto sender = f.make_policy(f.sender_enclave, NodeId{1}, false);
  auto receiver = f.make_policy(f.receiver_enclave, NodeId{2}, false);
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    auto wire = sender.shield(NodeId{2}, ViewId{0}, as_view(payload));
    benchmark::DoNotOptimize(receiver.verify(NodeId{1}, as_view(wire.value())));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ShieldVerifyRoundTrip)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ShieldVerifyConfidential(benchmark::State& state) {
  Fixture f;
  auto sender = f.make_policy(f.sender_enclave, NodeId{1}, true);
  auto receiver = f.make_policy(f.receiver_enclave, NodeId{2}, true);
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    auto wire = sender.shield(NodeId{2}, ViewId{0}, as_view(payload));
    benchmark::DoNotOptimize(receiver.verify(NodeId{1}, as_view(wire.value())));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ShieldVerifyConfidential)->Arg(256)->Arg(1024)->Arg(4096);

void BM_VerifyRejectTampered(benchmark::State& state) {
  Fixture f;
  auto sender = f.make_policy(f.sender_enclave, NodeId{1}, false);
  auto receiver = f.make_policy(f.receiver_enclave, NodeId{2}, false);
  auto wire = sender.shield(NodeId{2}, ViewId{0}, as_view(Bytes(256, 0xAB)));
  Bytes tampered = wire.value();
  tampered[tampered.size() / 2] ^= 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(receiver.verify(NodeId{1}, as_view(tampered)));
  }
}
BENCHMARK(BM_VerifyRejectTampered);

void BM_EnclaveCounterIncrement(benchmark::State& state) {
  Fixture f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.sender_enclave.increment_counter(ChannelId{1}));
  }
}
BENCHMARK(BM_EnclaveCounterIncrement);

}  // namespace

BENCHMARK_MAIN();

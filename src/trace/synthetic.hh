/**
 * @file
 * Statistical workload models standing in for the paper's benchmark
 * binaries (Tables 2 and 4).
 *
 * Each application is a static loop "program" — generated once from
 * the AppParams — whose memory operations are bound to address
 * streams (sequential, random-private, random-shared, pointer-chase).
 * Dynamic execution walks the loop, so static PCs recur exactly as in
 * real loops; that recurrence is what PC-indexed predictors (CBP,
 * CLPT) exploit. Pointer-chase loads form serial dependence chains
 * over large footprints, reproducing the ROB-head-blocking loads that
 * Runahead/CLEAR (and this paper) target; streaming loads enjoy MLP
 * and rarely block.
 */

#ifndef CRITMEM_TRACE_SYNTHETIC_HH
#define CRITMEM_TRACE_SYNTHETIC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/random.hh"
#include "sim/types.hh"
#include "trace/generator.hh"

namespace critmem
{

/** Statistical description of one application. */
struct AppParams
{
    std::string name;

    // Instruction mix (fractions of all micro-ops).
    double loadFrac = 0.28;
    double storeFrac = 0.12;
    double branchFrac = 0.12;
    double fpFrac = 0.20;      ///< of non-memory compute ops

    // Control flow.
    double mispredictRate = 0.005; ///< average, across branches
    std::uint32_t loopLength = 512; ///< static micro-ops in the loop

    // Memory behavior. Most accesses are "local" (a small, cache-
    // resident region); the rest are "far" accesses that split across
    // sequential, random, and pointer-chase streams over working sets
    // that overflow the caches.
    double localFrac = 0.75;   ///< of memory ops: cache-resident
    double seqFrac = 0.45;     ///< of far ops: sequential/strided
    double randomFrac = 0.35;  ///< of far ops: random in randBytes
    double chaseFrac = 0.20;   ///< of far ops: serial pointer chasing
    double sharedFrac = 0.20;  ///< far streams in the shared region

    std::uint64_t localBytes = 16ull << 10; ///< near region per thread
    std::uint64_t randBytes = 3ull << 20;   ///< random-stream region
    std::uint64_t privateBytes = 16ull << 20; ///< seq/chase region
    std::uint64_t sharedBytes = 8ull << 20;  ///< shared working set
    std::uint32_t strideBytes = 8;           ///< base sequential stride
    double bigStrideFrac = 0.0; ///< streams striding past a DRAM row
    double rowLocality = 0.5;   ///< random stream stays in its page

    /** Fraction of loads with >= 3 direct consumers (CLPT fodder). */
    double fanoutLoadFrac = 0.10;
};

/** The statistical application generator. */
class SyntheticApp : public TraceGenerator
{
  public:
    /**
     * @param params Application description.
     * @param tid Thread id within the application.
     * @param numThreads Threads the application runs with.
     * @param addrBase Base of this application's address space (keeps
     *        multiprogrammed bundles disjoint).
     * @param seed Per-run seed; the static program depends only on
     *        (params, seed, burstiness), the dynamic stream also on
     *        tid.
     * @param burstiness Fraction of far accesses clustered into the
     *        head of the loop body (the "memory phase"), mimicking
     *        real applications: each iteration alternates a miss
     *        storm with a compute stretch, which is what
     *        intermittently fills the DRAM transaction queues
     *        (SystemConfig::burstiness).
     */
    SyntheticApp(const AppParams &params, CoreId tid,
                 std::uint32_t numThreads, Addr addrBase,
                 std::uint64_t seed, double burstiness = 0.85);

    void next(MicroOp &op) override;

    const std::string &name() const override { return params_.name; }

    /** Static loads in the loop (the CBP's learning target count). */
    std::uint32_t staticLoads() const { return staticLoads_; }

    /**
     * The far (cache-overflowing) regions this thread touches, as
     * (base, size) pairs — used to prewarm the shared cache with
     * plausibly-resident lines before measurement.
     */
    std::vector<std::pair<Addr, std::uint64_t>>
    farRegions() const override;

  private:
    enum class StreamKind : std::uint8_t
    {
        Local,
        Sequential,
        RandomPrivate,
        RandomShared,
        PointerChase,
    };

    struct Stream
    {
        StreamKind kind = StreamKind::Sequential;
        Addr base = 0;
        std::uint64_t size = 0;
        std::uint64_t pos = 0;
        std::uint64_t stride = 64;
    };

    struct StaticOp
    {
        OpClass cls = OpClass::IntAlu;
        std::uint8_t latency = 1;
        std::uint16_t dep1 = 0;
        std::uint16_t dep2 = 0;
        std::int32_t stream = -1;
        float mispredictRate = 0.0f;
    };

    void buildProgram(std::uint64_t seed);
    Addr genAddress(Stream &stream);

    AppParams params_;
    double burstiness_;
    CoreId tid_;
    std::uint32_t numThreads_;
    Addr privateBase_;
    Addr sharedBase_;
    Rng rng_;
    std::vector<StaticOp> program_;
    std::vector<Stream> streams_;
    std::uint32_t loopPos_ = 0;
    std::uint32_t staticLoads_ = 0;
    std::uint64_t pcBase_ = 0x400000;
};

} // namespace critmem

#endif // CRITMEM_TRACE_SYNTHETIC_HH

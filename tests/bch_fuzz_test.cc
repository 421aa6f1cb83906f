/**
 * @file
 * Property/fuzz tests for the BCH codec, the correctness anchor the
 * whole strong-ECC scrub argument rests on.
 *
 * Seeded randomized sweep, two properties:
 *
 *  - Round trip: any 0..t injected errors decode back to the exact
 *    transmitted codeword, with correctedBits equal to the injected
 *    count.
 *  - No silent miscorrection: on the paper's headline code (BCH-8,
 *    d >= 17), t+1..t+3 injected errors must never come back as a
 *    "Corrected" word whose payload differs from the original — a
 *    random pattern landing within distance t of *another* codeword
 *    needs >= t+1 of its flips aligned with a minimum-weight
 *    codeword, which at this distance is ~1e-7 per trial. Weaker
 *    codes legitimately miscorrect beyond t with appreciable
 *    probability (the simulator models exactly that as
 *    `miscorrections` — e.g. two errors on a t=1 code routinely
 *    decode to a wrong word), so for them the suite only checks the
 *    decoder's honesty invariants: a corrupted word is never called
 *    Clean, and every Corrected verdict yields a valid codeword.
 *
 * The suite is part of the sanitizer CI leg (PCMSCRUB_SANITIZE=ON),
 * so every randomized decode also runs under ASan/UBSan.
 */

#include <set>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "ecc/bch.hh"

namespace pcmscrub {
namespace {

/** Flip `count` distinct random bits of the codeword. */
void
injectErrors(BitVector &cw, unsigned count, Random &rng)
{
    std::set<std::size_t> positions;
    while (positions.size() < count) {
        const std::size_t bit = rng.uniformInt(cw.size());
        if (positions.insert(bit).second)
            cw.flip(bit);
    }
}

struct CodeShape
{
    std::size_t dataBits;
    unsigned t;
};

/** The shapes the simulator actually instantiates. */
const CodeShape kShapes[] = {
    {512, 1}, {512, 2}, {512, 4}, {512, 8}, {128, 4}, {64, 2},
};

TEST(BchFuzz, UpToTErrorsRoundTripExactly)
{
    Random rng(20260806);
    for (const CodeShape &shape : kShapes) {
        const BchCode code(shape.dataBits, shape.t);
        SCOPED_TRACE(code.name());
        for (int trial = 0; trial < 60; ++trial) {
            BitVector data(shape.dataBits);
            data.randomize(rng);
            const BitVector clean = code.encode(data);
            for (unsigned errors = 0; errors <= shape.t; ++errors) {
                BitVector cw = clean;
                injectErrors(cw, errors, rng);
                const DecodeResult res = code.decode(cw);
                ASSERT_EQ(cw, clean)
                    << errors << " errors, trial " << trial;
                EXPECT_EQ(res.correctedBits, errors);
                EXPECT_EQ(res.status, errors == 0
                                          ? DecodeStatus::Clean
                                          : DecodeStatus::Corrected);
                EXPECT_TRUE(code.check(cw));
                EXPECT_EQ(code.extractData(cw), data);
            }
        }
    }
}

TEST(BchFuzz, BeyondTErrorsNeverSilentlyMiscorrectOnStrongCodes)
{
    Random rng(77005);
    for (const CodeShape &shape : kShapes) {
        if (shape.t < 8)
            continue;
        const BchCode code(shape.dataBits, shape.t);
        SCOPED_TRACE(code.name());
        for (int trial = 0; trial < 60; ++trial) {
            BitVector data(shape.dataBits);
            data.randomize(rng);
            const BitVector clean = code.encode(data);
            for (unsigned extra = 1; extra <= 3; ++extra) {
                BitVector cw = clean;
                injectErrors(cw, shape.t + extra, rng);
                const DecodeResult res = code.decode(cw);
                EXPECT_NE(res.status, DecodeStatus::Clean);
                // The dangerous outcome: claiming success while
                // delivering the wrong payload.
                if (res.status == DecodeStatus::Corrected) {
                    EXPECT_TRUE(code.check(cw));
                    EXPECT_EQ(code.extractData(cw), data)
                        << "silent miscorrection at t+" << extra
                        << ", trial " << trial;
                }
            }
        }
    }
}

TEST(BchFuzz, DecoderStaysHonestOnWeakCodesBeyondT)
{
    // Codes below BCH-8 *do* miscorrect beyond t (that is physics
    // the simulator models); the decoder must still never call a
    // corrupted word Clean, and anything it "corrects" must be a
    // valid codeword.
    Random rng(90210);
    for (const CodeShape &shape : kShapes) {
        if (shape.t >= 8)
            continue;
        const BchCode code(shape.dataBits, shape.t);
        SCOPED_TRACE(code.name());
        for (int trial = 0; trial < 60; ++trial) {
            BitVector data(shape.dataBits);
            data.randomize(rng);
            const BitVector clean = code.encode(data);
            for (unsigned extra = 1; extra <= 3; ++extra) {
                BitVector cw = clean;
                injectErrors(cw, shape.t + extra, rng);
                const DecodeResult res = code.decode(cw);
                // "Clean" is only consistent when the corrupted word
                // happens to be a valid codeword (the error pattern
                // itself had codeword weight) — verifiable either way.
                if (res.status == DecodeStatus::Clean ||
                    res.status == DecodeStatus::Corrected) {
                    EXPECT_TRUE(code.check(cw));
                }
            }
        }
    }
}

TEST(BchFuzz, UncorrectableVerdictLeavesPayloadRecoverableByRetry)
{
    // The degradation ladder re-reads after an Uncorrectable
    // verdict; the decoder must not have scrambled the word it
    // failed on beyond the errors it was handed. (Decoding is
    // allowed to flip bits only when it claims Corrected.)
    Random rng(31337);
    const BchCode code(512, 4);
    for (int trial = 0; trial < 200; ++trial) {
        BitVector data(512);
        data.randomize(rng);
        const BitVector clean = code.encode(data);
        BitVector cw = clean;
        injectErrors(cw, 4 + 1 + trial % 3, rng);
        const BitVector asHanded = cw;
        const DecodeResult res = code.decode(cw);
        if (res.status == DecodeStatus::Uncorrectable) {
            EXPECT_EQ(cw, asHanded);
        }
    }
}

} // namespace
} // namespace pcmscrub

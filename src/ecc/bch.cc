#include "ecc/bch.hh"

#include <bit>
#include <limits>

#include "common/logging.hh"
#include "common/simd.hh"
#include "ecc/bch_simd.hh"
#include "gf/minpoly.hh"

namespace pcmscrub {

namespace {

constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

/** Syndrome / locator buffer length for the stack decode path. */
constexpr unsigned kMaxTerms = 2 * BchCode::kMaxT;

/** Discrete-log sentinel for the zero element (which has no log). */
constexpr std::uint32_t kLogZero = 0xffffffffu;

} // namespace

unsigned
BchCode::pickFieldDegree(std::size_t data_bits, unsigned t)
{
    for (unsigned m = 4; m <= 14; ++m) {
        const std::size_t n = (1ULL << m) - 1;
        // deg g <= m * t; require room for payload plus parity.
        if (n >= data_bits + static_cast<std::size_t>(m) * t)
            return m;
    }
    fatal("no supported BCH field fits %zu data bits at t=%u",
          data_bits, t);
}

BchCode::BchCode(std::size_t data_bits, unsigned t, unsigned m)
    : dataBits_(data_bits),
      t_(t),
      field_(m == 0 ? pickFieldDegree(data_bits, t) : m),
      generator_(bchGenerator(field_, t))
{
    PCMSCRUB_ASSERT(t >= 1, "BCH needs t >= 1");
    PCMSCRUB_ASSERT(t <= kMaxT, "BCH t=%u exceeds the supported "
                    "ceiling %u", t, kMaxT);
    const int deg = generator_.degree();
    PCMSCRUB_ASSERT(deg > 0, "degenerate generator polynomial");
    parityBits_ = static_cast<unsigned>(deg);
    codewordBits_ = dataBits_ + parityBits_;
    if (codewordBits_ > field_.order()) {
        fatal("BCH(m=%u, t=%u) too short for %zu data bits "
              "(need %zu <= %u)",
              field_.m(), t, data_bits, codewordBits_, field_.order());
    }
    buildSyndromeTable();
    buildEncodeTable();
}

void
BchCode::buildEncodeTable()
{
    encWords_ = (parityBits_ + 63) / 64;
    if (parityBits_ < 8 || encWords_ > 2) {
        // Byte steps need at least one full byte of register, and no
        // supported field produces more than 2 words of parity; keep
        // the BinPoly fallback for anything outside that envelope.
        encTable_.clear();
        return;
    }
    for (unsigned b = 0; b < parityBits_; ++b) {
        if (generator_.coeff(b))
            genLow_[b / 64] |= 1ULL << (b % 64);
    }
    // Remainders of the eight monomials one byte can set; byte rows
    // follow by linearity of "mod g" over GF(2).
    std::uint64_t single[8][2] = {};
    for (unsigned k = 0; k < 8; ++k) {
        const BinPoly rem =
            BinPoly::monomial(parityBits_ + k).mod(generator_);
        for (unsigned b = 0; b < parityBits_; ++b) {
            if (rem.coeff(b))
                single[k][b / 64] |= 1ULL << (b % 64);
        }
    }
    encTable_.assign(std::size_t{256} * encWords_, 0);
    for (unsigned v = 1; v < 256; ++v) {
        const unsigned k = static_cast<unsigned>(std::countr_zero(v));
        const std::uint64_t *const prev =
            &encTable_[(v & (v - 1)) * encWords_];
        std::uint64_t *const dst = &encTable_[v * encWords_];
        for (unsigned w = 0; w < encWords_; ++w)
            dst[w] = prev[w] ^ single[k][w];
    }
}

void
BchCode::buildSyndromeTable()
{
    const unsigned terms = 2 * t_;
    synBytes_ = (codewordBits_ + 7) / 8;
    synTable_.assign(synBytes_ * 256 * terms, 0);
    std::vector<GfElem> single(8 * terms, 0);
    for (std::size_t p = 0; p < synBytes_; ++p) {
        const unsigned limit = static_cast<unsigned>(
            codewordBits_ - p * 8 < 8 ? codewordBits_ - p * 8 : 8);
        for (unsigned k = 0; k < limit; ++k) {
            const std::uint64_t power = bitToPower(p * 8 + k);
            for (unsigned j = 1; j <= terms; ++j)
                single[k * terms + j - 1] = field_.alphaPow(power * j);
        }
        GfElem *const block = &synTable_[p * 256 * terms];
        // Value v's row is the single-bit row of its lowest set bit
        // XORed with the already-built row of v with that bit cleared.
        for (unsigned v = 1; v < 256; ++v) {
            const unsigned k = static_cast<unsigned>(
                std::countr_zero(v));
            GfElem *const dst = &block[v * terms];
            if (k >= limit) {
                // Bit beyond the codeword tail contributes nothing.
                const GfElem *const prev = &block[(v & (v - 1)) * terms];
                for (unsigned i = 0; i < terms; ++i)
                    dst[i] = prev[i];
                continue;
            }
            const GfElem *const prev = &block[(v & (v - 1)) * terms];
            const GfElem *const bit = &single[k * terms];
            for (unsigned i = 0; i < terms; ++i)
                dst[i] = prev[i] ^ bit[i];
        }
    }
}

std::string
BchCode::name() const
{
    return "BCH(t=" + std::to_string(t_) + ",m=" +
        std::to_string(field_.m()) + "," +
        std::to_string(codewordBits_) + "," +
        std::to_string(dataBits_) + ")";
}

std::size_t
BchCode::bitToPower(std::size_t bit) const
{
    // Layout: [data | parity]. Data bit i is the coefficient of
    // x^(parity + i); parity bit j is the coefficient of x^j.
    return bit < dataBits_ ? parityBits_ + bit : bit - dataBits_;
}

std::size_t
BchCode::powerToBit(std::size_t power) const
{
    if (power < parityBits_)
        return dataBits_ + power;
    const std::size_t data_index = power - parityBits_;
    return data_index < dataBits_ ? data_index : npos;
}

BitVector
BchCode::encodeSlow(const BitVector &data) const
{
    // parity(x) = (x^r * d(x)) mod g(x), systematic encoding.
    BinPoly message;
    for (std::size_t i = 0; i < dataBits_; ++i) {
        if (data.get(i))
            message.setCoeff(static_cast<unsigned>(parityBits_ + i), true);
    }
    const BinPoly parity = message.mod(generator_);

    BitVector codeword(codewordBits_);
    for (std::size_t i = 0; i < dataBits_; ++i)
        codeword.set(i, data.get(i));
    for (unsigned j = 0; j < parityBits_; ++j)
        codeword.set(dataBits_ + j, parity.coeff(j));
    return codeword;
}

BitVector
BchCode::encode(const BitVector &data) const
{
    PCMSCRUB_ASSERT(data.size() == dataBits_, "bad payload length %zu",
                    data.size());
    if (encTable_.empty())
        return encodeSlow(data);

    // CRC-style division: the r-bit register holds
    // (prefix(x) * x^r) mod g(x) for the payload prefix processed so
    // far, highest power first; after the last bit it is the parity.
    // r0 holds remainder bits [0, 64), r1 bits [64, r).
    const unsigned r = parityBits_;
    std::uint64_t r0 = 0;
    std::uint64_t r1 = 0;
    const std::uint64_t mask0 =
        r >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << r) - 1;
    const std::uint64_t mask1 =
        r <= 64 ? 0
                : (r == 128 ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << (r - 64)) - 1);

    // Feed one payload bit (the next-lower power).
    const auto stepBit = [&](std::uint64_t bit) {
        std::uint64_t top;
        if (encWords_ == 1) {
            top = r0 >> (r - 1);
            r0 = (r0 << 1) & mask0;
        } else {
            top = r1 >> (r - 65);
            r1 = ((r1 << 1) | (r0 >> 63)) & mask1;
            r0 <<= 1;
        }
        if (top ^ bit) {
            // g = x^r + genLow, so shifting x^r out folds genLow in.
            r0 ^= genLow_[0];
            r1 ^= genLow_[1];
        }
    };

    // Feed eight payload bits at once via the byte table.
    const auto stepByte = [&](std::uint64_t byte) {
        std::uint64_t top;
        if (encWords_ == 1) {
            top = r0 >> (r - 8);
            r0 = (r0 << 8) & mask0;
        } else if (r >= 72) {
            top = r1 >> (r - 72);
            r1 = ((r1 << 8) | (r0 >> 56)) & mask1;
            r0 <<= 8;
        } else {
            // The top byte straddles the word boundary (65 <= r < 72).
            top = ((r1 << (72 - r)) | (r0 >> (r - 8))) & 0xff;
            r1 = ((r1 << 8) | (r0 >> 56)) & mask1;
            r0 <<= 8;
        }
        const std::uint64_t *const row =
            &encTable_[(top ^ byte) * encWords_];
        r0 ^= row[0];
        if (encWords_ == 2)
            r1 ^= row[1];
    };

    // Highest powers first: a bit-serial head brings the remaining
    // payload length to a byte multiple, then the table takes over.
    const std::size_t head = dataBits_ % 8;
    for (std::size_t i = 0; i < head; ++i)
        stepBit(data.get(dataBits_ - 1 - i) ? 1 : 0);
    for (std::size_t k = dataBits_ / 8; k-- > 0;)
        stepByte(data.extract(k * 8, 8));

    BitVector codeword(codewordBits_);
    codeword.copyFrom(data, 0, 0, dataBits_);
    codeword.deposit(dataBits_, r < 64 ? r : 64, r0);
    if (r > 64)
        codeword.deposit(dataBits_ + 64, r - 64, r1);
    return codeword;
}

bool
BchCode::syndromes(const std::uint64_t *words, GfElem *syn) const
{
    const unsigned terms = 2 * t_;
    for (unsigned j = 0; j <= terms; ++j)
        syn[j] = 0; // syn[j] = S_j, syn[0] unused.
    const bool vectorized = simd::enabled() && bchsimd::available() &&
        bchsimd::syndromeAccumulate(words, synTable_.data(),
                                    synBytes_, codewordBits_, terms,
                                    syn);
    if (!vectorized) {
        for (std::size_t p = 0; p < synBytes_; ++p) {
            const std::size_t width = codewordBits_ - p * 8 < 8
                ? codewordBits_ - p * 8 : 8;
            const std::uint64_t v =
                bchsimd::extractByte(words, p, width);
            if (v == 0)
                continue;
            const GfElem *const row =
                &synTable_[(p * 256 + v) * terms];
            for (unsigned j = 1; j <= terms; ++j)
                syn[j] ^= row[j - 1];
        }
    }
    for (unsigned j = 1; j <= terms; ++j) {
        if (syn[j] != 0)
            return true;
    }
    return false;
}

DecodeResult
BchCode::decode(BitVector &codeword) const
{
    PCMSCRUB_ASSERT(codeword.size() == codewordBits_,
                    "bad codeword length %zu", codeword.size());
    DecodeResult result;

    // Zero-syndrome short-circuit on a stack buffer: a clean line
    // pays one table-driven syndrome pass and nothing else — no
    // heap traffic, no locator setup.
    GfElem syn[kMaxTerms + 1];
    if (!syndromes(codeword.words().data(), syn)) {
        result.status = DecodeStatus::Clean;
        return result;
    }
    result.usedFullDecode = true;

    const std::uint32_t order = field_.order();
    const unsigned termCount = 2 * t_;

    // Discrete logs of the syndromes, taken once: every discrepancy
    // product below is then a single exponent add plus one exp-table
    // load instead of a log/log/exp round trip through field_.mul.
    std::uint32_t synLog[kMaxTerms + 1];
    for (unsigned j = 1; j <= termCount; ++j)
        synLog[j] = syn[j] != 0 ? field_.log(syn[j]) : kLogZero;

    // Berlekamp-Massey: find the minimal LFSR (error locator
    // polynomial sigma) generating the syndrome sequence. Sigma
    // lives in fixed stack arrays, value and log form side by side
    // (the invariant: sigmaLog[i] is log(sigma[i]), kLogZero when
    // sigma[i] is zero); the previous-length polynomial only ever
    // multiplies, so its log form alone is kept. Degrees stay
    // <= n + 1 <= 2t by the standard BM invariant, which the update
    // asserts.
    GfElem sigma[kMaxTerms + 1] = {};
    std::uint32_t sigmaLog[kMaxTerms + 1];
    std::uint32_t prevLog[kMaxTerms + 1];
    for (unsigned i = 0; i <= kMaxTerms; ++i) {
        sigmaLog[i] = kLogZero;
        prevLog[i] = kLogZero;
    }
    sigma[0] = 1;
    sigmaLog[0] = 0;
    prevLog[0] = 0;
    unsigned sigmaDeg = 0;
    unsigned prevDeg = 0;
    unsigned lfsrLen = 0;
    unsigned gap = 1;
    std::uint32_t prevDiscLog = 0; // log of the unit discrepancy.

    for (unsigned n = 0; n < termCount; ++n) {
        GfElem discrepancy = syn[n + 1];
        const unsigned lim = lfsrLen < n ? lfsrLen : n;
        for (unsigned i = 1; i <= lim; ++i) {
            const std::uint32_t sl = sigmaLog[i];
            const std::uint32_t yl = synLog[n + 1 - i];
            if (sl != kLogZero && yl != kLogZero)
                discrepancy ^= field_.alphaPowReduced(sl + yl);
        }
        if (discrepancy == 0) {
            ++gap;
            continue;
        }
        const std::uint32_t discLog = field_.log(discrepancy);
        std::uint32_t factorLog = discLog + order - prevDiscLog;
        if (factorLog >= order)
            factorLog -= order;
        const bool lengthen = 2 * lfsrLen <= n;
        std::uint32_t oldLog[kMaxTerms + 1];
        const unsigned oldDeg = sigmaDeg;
        if (lengthen) {
            for (unsigned i = 0; i <= sigmaDeg; ++i)
                oldLog[i] = sigmaLog[i];
        }
        // sigma += x^gap * factor * prev, log-driven per term.
        PCMSCRUB_ASSERT(gap + prevDeg <= kMaxTerms,
                        "BM locator degree %u out of range",
                        gap + prevDeg);
        for (unsigned i = 0; i <= prevDeg; ++i) {
            if (prevLog[i] == kLogZero)
                continue;
            const unsigned at = gap + i;
            sigma[at] ^= field_.alphaPowReduced(factorLog +
                                                prevLog[i]);
            sigmaLog[at] = sigma[at] != 0 ? field_.log(sigma[at])
                                          : kLogZero;
        }
        if (gap + prevDeg > sigmaDeg)
            sigmaDeg = gap + prevDeg;
        while (sigmaDeg > 0 && sigma[sigmaDeg] == 0)
            --sigmaDeg;
        if (lengthen) {
            for (unsigned i = 0; i <= kMaxTerms; ++i)
                prevLog[i] = i <= oldDeg ? oldLog[i] : kLogZero;
            prevDeg = oldDeg;
            prevDiscLog = discLog;
            lfsrLen = n + 1 - lfsrLen;
            gap = 1;
        } else {
            ++gap;
        }
    }

    if (lfsrLen > t_ || sigmaDeg != lfsrLen) {
        result.status = DecodeStatus::Uncorrectable;
        return result;
    }

    // Chien search: sigma's roots are the inverse error locators.
    // A root at alpha^j marks an error at power (order - j) mod
    // order, and only powers below codewordBits_ map to codeword
    // bits — a root outside that range sits in the shortened
    // (always-zero) region and means the true error count exceeded
    // t. Scanning only the in-range j therefore changes nothing: an
    // out-of-range root eats one of sigma's at-most-lfsrLen roots,
    // so the count check below reports Uncorrectable either way.
    //
    // Each non-zero sigma coefficient contributes
    // alpha^(log c_i + i*j) to sigma(alpha^j); stepping j advances
    // the exponent by the coefficient's stride i, so the whole scan
    // is adds and exp-table lookups with no field multiplies. The
    // BM pass already maintains the coefficient logs, so setup is a
    // copy, not a log pass.
    std::uint32_t termExp[2 * 64];
    std::uint32_t termStride[2 * 64];
    unsigned terms = 0;
    for (unsigned i = 0; i <= sigmaDeg && terms < 2 * 64; ++i) {
        if (sigmaLog[i] == kLogZero)
            continue;
        termExp[terms] = sigmaLog[i];
        termStride[terms] = i % order;
        ++terms;
    }

    std::size_t errorBits[BchCode::kMaxT + 1];
    std::size_t errorCount = 0;
    // j = 0 (error at power 0) first: sigma(1) is the coefficient sum.
    GfElem atOne = 0;
    for (unsigned k = 0; k < terms; ++k)
        atOne ^= field_.alphaPowReduced(termExp[k]);
    if (atOne == 0)
        errorBits[errorCount++] = powerToBit(0);

    const std::uint32_t jStart =
        order - static_cast<std::uint32_t>(codewordBits_) + 1;
    for (unsigned k = 0; k < terms; ++k) {
        termExp[k] = static_cast<std::uint32_t>(
            (termExp[k] +
             static_cast<std::uint64_t>(termStride[k]) * jStart) %
            order);
    }
    if (simd::enabled() && bchsimd::available()) {
        std::vector<std::uint32_t> rootJs;
        bchsimd::chienScan(field_.expTableData(), order, termExp,
                           termStride, terms, jStart,
                           lfsrLen - errorCount, rootJs);
        for (const auto j : rootJs)
            errorBits[errorCount++] = powerToBit(order - j);
    } else {
        for (std::uint32_t j = jStart; j < order; ++j) {
            GfElem value = 0;
            for (unsigned k = 0; k < terms; ++k) {
                value ^= field_.alphaPowReduced(termExp[k]);
                termExp[k] += termStride[k];
                if (termExp[k] >= order)
                    termExp[k] -= order;
            }
            if (value != 0)
                continue;
            errorBits[errorCount++] = powerToBit(order - j);
            // A degree-lfsrLen locator has no further roots; the
            // rest of the scan cannot add or remove error bits.
            if (errorCount == lfsrLen)
                break;
        }
    }

    if (errorCount != lfsrLen) {
        // Locator does not split over the field inside the codeword
        // region: > t errors.
        result.status = DecodeStatus::Uncorrectable;
        return result;
    }

    for (std::size_t e = 0; e < errorCount; ++e)
        codeword.flip(errorBits[e]);
    result.status = DecodeStatus::Corrected;
    result.correctedBits = static_cast<unsigned>(errorCount);
    return result;
}

bool
BchCode::check(const BitVector &codeword) const
{
    return checkWords(codeword.words().data(), codeword.size());
}

bool
BchCode::checkWords(const std::uint64_t *words, std::size_t bits) const
{
    PCMSCRUB_ASSERT(bits == codewordBits_,
                    "bad codeword length %zu", bits);
    GfElem syn[kMaxTerms + 1];
    return !syndromes(words, syn);
}

} // namespace pcmscrub

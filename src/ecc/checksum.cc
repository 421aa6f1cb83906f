#include "ecc/checksum.hh"

#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace pcmscrub {

LightDetector::LightDetector(std::size_t data_bits, unsigned parity_bits,
                             unsigned granularity)
    : dataBits_(data_bits), parityBits_(parity_bits),
      granularity_(granularity)
{
    PCMSCRUB_ASSERT(data_bits >= 1, "detector needs a payload");
    PCMSCRUB_ASSERT(parity_bits >= 1 && parity_bits <= 64,
                    "detector width %u out of range", parity_bits);
    PCMSCRUB_ASSERT(granularity >= 1, "granularity must be positive");
    payloadWords_ = (dataBits_ + 63) / 64;
    masks_.assign(payloadWords_ * parityBits_, 0);
    for (std::size_t i = 0; i < dataBits_; ++i) {
        const std::size_t cls = (i / granularity_) % parityBits_;
        masks_[(i / 64) * parityBits_ + cls] |= 1ULL << (i % 64);
    }
}

std::string
LightDetector::name() const
{
    return "LightDetect(s=" + std::to_string(parityBits_) + ")";
}

BitVector
LightDetector::compute(const BitVector &data) const
{
    PCMSCRUB_ASSERT(data.size() == dataBits_, "bad payload length %zu",
                    data.size());
    std::uint64_t acc = 0;
    const std::vector<std::uint64_t> &words = data.words();
    for (std::size_t w = 0; w < payloadWords_; ++w) {
        const std::uint64_t word = words[w];
        if (word == 0)
            continue;
        const std::uint64_t *row = &masks_[w * parityBits_];
        for (unsigned c = 0; c < parityBits_; ++c) {
            acc ^= static_cast<std::uint64_t>(
                       std::popcount(word & row[c]) & 1)
                << c;
        }
    }
    BitVector parity(parityBits_);
    parity.deposit(0, parityBits_, acc);
    return parity;
}

double
LightDetector::missProbability(unsigned errors) const
{
    if (errors == 0)
        return 1.0; // No errors: "looks clean" is the truth.
    if (errors % 2 == 1)
        return 0.0; // Odd total can't make every class even.

    // Independent-placement model: P(all classes even) =
    // 2^-s * sum_j C(s, j) * (1 - 2j/s)^e   (parity Fourier identity).
    const double s = static_cast<double>(parityBits_);
    double sum = 0.0;
    double logChoose = 0.0; // log C(s, 0)
    for (unsigned j = 0; j <= parityBits_; ++j) {
        if (j > 0) {
            logChoose += std::log(static_cast<double>(parityBits_ - j + 1))
                - std::log(static_cast<double>(j));
        }
        const double base = 1.0 - 2.0 * static_cast<double>(j) / s;
        sum += std::exp(logChoose) *
            std::pow(base, static_cast<double>(errors));
    }
    const double p = sum * std::pow(0.5, static_cast<double>(parityBits_));
    return p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
}

CrcDetector::CrcDetector(std::size_t data_bits, unsigned width)
    : dataBits_(data_bits), width_(width)
{
    PCMSCRUB_ASSERT(data_bits >= 1, "detector needs a payload");
    switch (width) {
      case 8:
        polynomial_ = 0x07; // CRC-8-ATM
        break;
      case 16:
        polynomial_ = 0x1021; // CRC-16-CCITT
        break;
      case 32:
        polynomial_ = 0x04C11DB7; // CRC-32 (IEEE)
        break;
      default:
        fatal("CRC width %u unsupported (use 8, 16, or 32)", width);
    }
}

std::string
CrcDetector::name() const
{
    return "CRC-" + std::to_string(width_);
}

BitVector
CrcDetector::compute(const BitVector &data) const
{
    PCMSCRUB_ASSERT(data.size() == dataBits_, "bad payload length %zu",
                    data.size());
    // Bitwise long division, MSB-first over the payload.
    const std::uint32_t topBit = width_ == 32
        ? 0x80000000u : (1u << (width_ - 1));
    const std::uint32_t mask = width_ == 32
        ? 0xFFFFFFFFu : ((1u << width_) - 1);
    std::uint32_t remainder = 0;
    for (std::size_t i = dataBits_; i-- > 0;) {
        const bool inBit = data.get(i);
        const bool outBit = (remainder & topBit) != 0;
        remainder = (remainder << 1) & mask;
        if (inBit != outBit)
            remainder ^= polynomial_ & mask;
    }
    BitVector word(width_);
    word.deposit(0, width_, remainder);
    return word;
}

double
CrcDetector::missProbability(unsigned errors) const
{
    if (errors == 0)
        return 1.0;
    if (errors == 1)
        return 0.0; // Single errors never divide the generator.
    // Generators divisible by (x + 1) — CRC-8-ATM and CRC-16-CCITT
    // both are — detect every odd-weight pattern, and even-weight
    // patterns alias within the even-parity subspace at 2^(1-w).
    // Generators without that factor (CRC-32) alias uniformly.
    const unsigned terms = static_cast<unsigned>(
        std::popcount(polynomial_)) + 1; // +1 for the implicit x^w.
    const bool parityFactor = terms % 2 == 0;
    if (parityFactor) {
        if (errors % 2 == 1)
            return 0.0;
        return std::pow(0.5, static_cast<double>(width_ - 1));
    }
    return std::pow(0.5, static_cast<double>(width_));
}

std::unique_ptr<Detector>
makeDetector(DetectorKind kind, std::size_t data_bits, unsigned width,
             unsigned granularity)
{
    switch (kind) {
      case DetectorKind::InterleavedParity:
        return std::make_unique<LightDetector>(data_bits, width,
                                               granularity);
      case DetectorKind::Crc:
        return std::make_unique<CrcDetector>(data_bits, width);
      default:
        panic("bad detector kind %u", static_cast<unsigned>(kind));
    }
}

} // namespace pcmscrub

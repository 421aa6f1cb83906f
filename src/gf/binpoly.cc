#include "gf/binpoly.hh"

#include <bit>

#include "common/logging.hh"

namespace pcmscrub {

BinPoly
BinPoly::fromBits(std::uint64_t bits)
{
    BinPoly p;
    if (bits)
        p.words_.push_back(bits);
    return p;
}

BinPoly
BinPoly::monomial(unsigned degree)
{
    BinPoly p;
    p.words_.assign(degree / 64 + 1, 0);
    p.words_.back() = 1ULL << (degree % 64);
    return p;
}

int
BinPoly::degree() const
{
    for (std::size_t i = words_.size(); i-- > 0;) {
        if (words_[i]) {
            return static_cast<int>(i) * 64 + 63 -
                std::countl_zero(words_[i]);
        }
    }
    return -1;
}

bool
BinPoly::coeff(unsigned power) const
{
    const std::size_t word = power / 64;
    if (word >= words_.size())
        return false;
    return (words_[word] >> (power % 64)) & 1ULL;
}

void
BinPoly::setCoeff(unsigned power, bool value)
{
    const std::size_t word = power / 64;
    if (word >= words_.size()) {
        if (!value)
            return;
        words_.resize(word + 1, 0);
    }
    const std::uint64_t mask = 1ULL << (power % 64);
    if (value)
        words_[word] |= mask;
    else
        words_[word] &= ~mask;
    trim();
}

BinPoly
BinPoly::operator*(const BinPoly &other) const
{
    BinPoly result;
    const int da = degree();
    const int db = other.degree();
    if (da < 0 || db < 0)
        return result;
    result.words_.assign(static_cast<std::size_t>(da + db) / 64 + 1, 0);
    for (int i = 0; i <= da; ++i) {
        if (!coeff(static_cast<unsigned>(i)))
            continue;
        // XOR other, shifted left by i, into the accumulator.
        const unsigned wordShift = static_cast<unsigned>(i) / 64;
        const unsigned bitShift = static_cast<unsigned>(i) % 64;
        for (std::size_t j = 0; j < other.words_.size(); ++j) {
            const std::uint64_t word = other.words_[j];
            result.words_[j + wordShift] ^= word << bitShift;
            if (bitShift != 0 && j + wordShift + 1 < result.words_.size())
                result.words_[j + wordShift + 1] ^= word >> (64 - bitShift);
        }
    }
    result.trim();
    return result;
}

BinPoly
BinPoly::mod(const BinPoly &divisor) const
{
    const int dd = divisor.degree();
    PCMSCRUB_ASSERT(dd >= 0, "polynomial modulo by zero");
    BinPoly rem = *this;
    int dr = rem.degree();
    while (dr >= dd) {
        const unsigned shift = static_cast<unsigned>(dr - dd);
        // rem ^= divisor << shift
        const unsigned wordShift = shift / 64;
        const unsigned bitShift = shift % 64;
        if (rem.words_.size() < divisor.words_.size() + wordShift + 1)
            rem.words_.resize(divisor.words_.size() + wordShift + 1, 0);
        for (std::size_t j = 0; j < divisor.words_.size(); ++j) {
            const std::uint64_t word = divisor.words_[j];
            rem.words_[j + wordShift] ^= word << bitShift;
            if (bitShift != 0)
                rem.words_[j + wordShift + 1] ^= word >> (64 - bitShift);
        }
        dr = rem.degree();
    }
    rem.trim();
    return rem;
}

bool
BinPoly::operator==(const BinPoly &other) const
{
    const std::size_t size = std::max(words_.size(), other.words_.size());
    for (std::size_t i = 0; i < size; ++i) {
        const std::uint64_t a = i < words_.size() ? words_[i] : 0;
        const std::uint64_t b = i < other.words_.size() ? other.words_[i]
                                                        : 0;
        if (a != b)
            return false;
    }
    return true;
}

void
BinPoly::trim()
{
    while (!words_.empty() && words_.back() == 0)
        words_.pop_back();
}

} // namespace pcmscrub

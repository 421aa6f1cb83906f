#include "gf/gf2m.hh"

#include "common/logging.hh"

namespace pcmscrub {

namespace {

/**
 * Standard primitive polynomials over GF(2), indexed by m
 * (Lin & Costello, "Error Control Coding", Appendix B).
 * Bit i is the coefficient of x^i, including the leading x^m term.
 */
constexpr std::uint32_t primitivePolys[] = {
    0,      // m = 0 (unused)
    0,      // m = 1 (unused)
    0x7,    // m = 2:  x^2 + x + 1
    0xB,    // m = 3:  x^3 + x + 1
    0x13,   // m = 4:  x^4 + x + 1
    0x25,   // m = 5:  x^5 + x^2 + 1
    0x43,   // m = 6:  x^6 + x + 1
    0x89,   // m = 7:  x^7 + x^3 + 1
    0x11D,  // m = 8:  x^8 + x^4 + x^3 + x^2 + 1
    0x211,  // m = 9:  x^9 + x^4 + 1
    0x409,  // m = 10: x^10 + x^3 + 1
    0x805,  // m = 11: x^11 + x^2 + 1
    0x1053, // m = 12: x^12 + x^6 + x^4 + x + 1
    0x201B, // m = 13: x^13 + x^4 + x^3 + x + 1
    0x4443, // m = 14: x^14 + x^10 + x^6 + x + 1
};

} // namespace

GF2m::GF2m(unsigned m)
    : m_(m)
{
    if (m < 2 || m > 14)
        fatal("GF(2^m) supported for 2 <= m <= 14, got m=%u", m);
    poly_ = primitivePolys[m];
    order_ = (1U << m) - 1;

    expTable_.resize(2 * order_);
    logTable_.assign(order_ + 1, 0);

    GfElem value = 1;
    for (std::uint32_t i = 0; i < order_; ++i) {
        expTable_[i] = value;
        logTable_[value] = i;
        value <<= 1;
        if (value & (1U << m))
            value ^= poly_;
    }
    PCMSCRUB_ASSERT(value == 1,
                    "polynomial 0x%x is not primitive for m=%u",
                    poly_, m);
    // Doubled table avoids a modulo in mul().
    for (std::uint32_t i = 0; i < order_; ++i)
        expTable_[order_ + i] = expTable_[i];
}

GfElem
GF2m::alphaPow(std::uint64_t power) const
{
    return expTable_[power % order_];
}

std::uint32_t
GF2m::log(GfElem element) const
{
    PCMSCRUB_ASSERT(element != 0 && element <= order_,
                    "log of invalid element %u", element);
    return logTable_[element];
}

GfElem
GF2m::mul(GfElem a, GfElem b) const
{
    if (a == 0 || b == 0)
        return 0;
    return expTable_[logTable_[a] + logTable_[b]];
}

GfElem
GF2m::div(GfElem a, GfElem b) const
{
    PCMSCRUB_ASSERT(b != 0, "division by zero in GF(2^%u)", m_);
    if (a == 0)
        return 0;
    return expTable_[logTable_[a] + order_ - logTable_[b]];
}

GfElem
GF2m::inv(GfElem a) const
{
    PCMSCRUB_ASSERT(a != 0, "inverse of zero in GF(2^%u)", m_);
    return expTable_[order_ - logTable_[a]];
}

} // namespace pcmscrub

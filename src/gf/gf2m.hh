/**
 * @file
 * Arithmetic in the finite field GF(2^m), 2 <= m <= 14.
 *
 * Built once per field from a standard primitive polynomial
 * (Lin & Costello tables); multiplication and inversion go through
 * exp/log tables, so they are O(1) and allocation-free.
 */

#ifndef PCMSCRUB_GF_GF2M_HH
#define PCMSCRUB_GF_GF2M_HH

#include <cstdint>
#include <vector>

namespace pcmscrub {

/** A field element; value 0 is the additive identity. */
using GfElem = std::uint32_t;

/**
 * The field GF(2^m) with its exp/log tables.
 */
class GF2m
{
  public:
    /** Construct GF(2^m) from the standard primitive polynomial. */
    explicit GF2m(unsigned m);

    unsigned m() const { return m_; }

    /** Multiplicative-group order: 2^m - 1. */
    std::uint32_t order() const { return order_; }

    /** Number of field elements: 2^m. */
    std::uint32_t size() const { return order_ + 1; }

    /** The primitive polynomial, bit i = coefficient of x^i. */
    std::uint32_t primitivePoly() const { return poly_; }

    /** alpha^power (power taken mod the group order). */
    GfElem alphaPow(std::uint64_t power) const;

    /**
     * alpha^power for an exponent already reduced below 2 * order:
     * a straight exp-table load, no modulo. Hot loops (Chien search)
     * that keep their exponents reduced use this to stay
     * division-free.
     */
    GfElem alphaPowReduced(std::uint32_t power) const
    {
        return expTable_[power];
    }

    /**
     * Raw exp table (alpha^i for i in [0, 2*order)) for vectorized
     * gathers — the SIMD Chien search loads eight alphaPowReduced()
     * values per instruction straight from this array.
     */
    const GfElem *expTableData() const { return expTable_.data(); }

    /** Discrete log base alpha; element must be non-zero. */
    std::uint32_t log(GfElem element) const;

    GfElem mul(GfElem a, GfElem b) const;
    GfElem div(GfElem a, GfElem b) const;
    GfElem inv(GfElem a) const;

  private:
    unsigned m_;
    std::uint32_t order_;
    std::uint32_t poly_;
    std::vector<GfElem> expTable_;   // alpha^i for i in [0, 2*order)
    std::vector<std::uint32_t> logTable_;
};

} // namespace pcmscrub

#endif // PCMSCRUB_GF_GF2M_HH

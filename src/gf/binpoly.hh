/**
 * @file
 * Polynomials over GF(2), used for BCH generator polynomials and
 * systematic encoding remainders.
 *
 * Coefficients are stored packed, bit i of word i/64 = coefficient of
 * x^i. Degrees stay small (a BCH generator for t=8, m=10 has degree
 * <= 80), so the dense representation is the right one.
 */

#ifndef PCMSCRUB_GF_BINPOLY_HH
#define PCMSCRUB_GF_BINPOLY_HH

#include <cstdint>
#include <vector>

namespace pcmscrub {

/**
 * Dense binary polynomial.
 */
class BinPoly
{
  public:
    /** The zero polynomial. */
    BinPoly() = default;

    /** Polynomial from low-order coefficient bits of a word. */
    static BinPoly fromBits(std::uint64_t bits);

    /** The monomial x^degree. */
    static BinPoly monomial(unsigned degree);

    /** Degree; -1 for the zero polynomial. */
    int degree() const;

    bool isZero() const { return degree() < 0; }

    bool coeff(unsigned power) const;
    void setCoeff(unsigned power, bool value);

    BinPoly operator*(const BinPoly &other) const;

    /** Remainder of this modulo divisor (divisor non-zero). */
    BinPoly mod(const BinPoly &divisor) const;

    bool operator==(const BinPoly &other) const;

  private:
    void trim();

    std::vector<std::uint64_t> words_;
};

} // namespace pcmscrub

#endif // PCMSCRUB_GF_BINPOLY_HH

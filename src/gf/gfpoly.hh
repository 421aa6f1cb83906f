/**
 * @file
 * Polynomials with coefficients in GF(2^m), used to build the minimal
 * polynomials behind the BCH generator (gf/minpoly.hh).
 */

#ifndef PCMSCRUB_GF_GFPOLY_HH
#define PCMSCRUB_GF_GFPOLY_HH

#include <vector>

#include "gf/gf2m.hh"

namespace pcmscrub {

/**
 * Dense polynomial over GF(2^m); coefficient i is of x^i.
 *
 * The field is passed into each operation rather than stored, keeping
 * the object a plain value type.
 */
class GfPoly
{
  public:
    GfPoly() = default;
    explicit GfPoly(std::vector<GfElem> coeffs);

    /** The constant polynomial c. */
    static GfPoly constant(GfElem c);

    int degree() const;
    bool isZero() const { return degree() < 0; }

    GfElem coeff(unsigned power) const;
    void setCoeff(unsigned power, GfElem value);

    GfPoly mul(const GF2m &field, const GfPoly &other) const;

  private:
    void trim();

    std::vector<GfElem> coeffs_;
};

} // namespace pcmscrub

#endif // PCMSCRUB_GF_GFPOLY_HH

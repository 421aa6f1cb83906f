#include "gf/gfpoly.hh"

namespace pcmscrub {

GfPoly::GfPoly(std::vector<GfElem> coeffs)
    : coeffs_(std::move(coeffs))
{
    trim();
}

GfPoly
GfPoly::constant(GfElem c)
{
    GfPoly p;
    if (c != 0)
        p.coeffs_.push_back(c);
    return p;
}

int
GfPoly::degree() const
{
    return static_cast<int>(coeffs_.size()) - 1;
}

GfElem
GfPoly::coeff(unsigned power) const
{
    return power < coeffs_.size() ? coeffs_[power] : 0;
}

void
GfPoly::setCoeff(unsigned power, GfElem value)
{
    if (power >= coeffs_.size()) {
        if (value == 0)
            return;
        coeffs_.resize(power + 1, 0);
    }
    coeffs_[power] = value;
    trim();
}

GfPoly
GfPoly::mul(const GF2m &field, const GfPoly &other) const
{
    GfPoly result;
    if (isZero() || other.isZero())
        return result;
    result.coeffs_.assign(coeffs_.size() + other.coeffs_.size() - 1, 0);
    for (std::size_t i = 0; i < coeffs_.size(); ++i) {
        if (coeffs_[i] == 0)
            continue;
        for (std::size_t j = 0; j < other.coeffs_.size(); ++j) {
            result.coeffs_[i + j] ^=
                field.mul(coeffs_[i], other.coeffs_[j]);
        }
    }
    result.trim();
    return result;
}

void
GfPoly::trim()
{
    while (!coeffs_.empty() && coeffs_.back() == 0)
        coeffs_.pop_back();
}

} // namespace pcmscrub

#include "scrub/ecc_scheme.hh"

#include "common/logging.hh"

namespace pcmscrub {

EccScheme::EccScheme(EccKind kind, unsigned t, unsigned ways)
    : kind_(kind), t_(t), ways_(ways)
{
}

EccScheme
EccScheme::secdedX8()
{
    return EccScheme(EccKind::SecdedInterleaved, 1, 8);
}

EccScheme
EccScheme::bch(unsigned t)
{
    PCMSCRUB_ASSERT(t >= 1 && t <= 16, "BCH strength %u out of range", t);
    return EccScheme(EccKind::Bch, t, 1);
}

std::string
EccScheme::name() const
{
    if (kind_ == EccKind::SecdedInterleaved)
        return std::to_string(ways_) + "xSECDED";
    return "BCH-" + std::to_string(t_);
}

unsigned
EccScheme::guaranteedT() const
{
    return t_;
}

unsigned
EccScheme::checkBits() const
{
    if (kind_ == EccKind::SecdedInterleaved)
        return ways_ * 8; // (72,64) per slice.
    // BCH over a 512-bit payload lives in GF(2^10): m*t check bits.
    return 10 * t_;
}

double
EccScheme::uncorrectableProb(unsigned errors) const
{
    if (kind_ == EccKind::Bch)
        return errors > t_ ? 1.0 : 0.0;
    if (errors <= t_)
        return 0.0;
    if (errors > ways_ * t_)
        return 1.0;
    // t = 1 per slice: survive iff all errors land in distinct
    // slices: ways!/(ways-e)! / ways^e.
    double survive = 1.0;
    for (unsigned e = 0; e < errors; ++e) {
        survive *= static_cast<double>(ways_ - e) /
            static_cast<double>(ways_);
    }
    return 1.0 - survive;
}

double
EccScheme::checkEnergy(const DeviceConfig &config) const
{
    if (kind_ == EccKind::SecdedInterleaved)
        return config.secdedDecodeEnergy;
    return config.bchCheckEnergy;
}

double
EccScheme::fullDecodeEnergy(const DeviceConfig &config) const
{
    if (kind_ == EccKind::SecdedInterleaved)
        return config.secdedDecodeEnergy;
    return config.bchFullDecodeEnergy;
}

} // namespace pcmscrub

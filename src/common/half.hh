#ifndef EDGERT_COMMON_HALF_HH
#define EDGERT_COMMON_HALF_HH

/**
 * @file
 * Software IEEE 754 binary16 ("half") arithmetic.
 *
 * EdgeRT quantizes FP32 models to FP16 the way TensorRT does; the
 * functional executor then computes in genuine half precision so
 * precision-induced output differences (paper Finding 2) are real,
 * not injected. Arithmetic is performed by converting to float,
 * operating, and rounding back to half (round-to-nearest-even),
 * which matches how scalar FP16 units behave.
 */

#include <cstdint>

namespace edgert {

/** Convert a float to its binary16 bit pattern (RNE, with denormals). */
std::uint16_t floatToHalfBits(float f);

/** Convert a binary16 bit pattern to float. */
float halfBitsToFloat(std::uint16_t h);

/**
 * IEEE binary16 value type. Storage-only with float-mediated math.
 */
class Half
{
  public:
    Half() : bits_(0) {}

    /** Construct from float with round-to-nearest-even. */
    explicit Half(float f) : bits_(floatToHalfBits(f)) {}

    /** Raw bit pattern accessor. */
    std::uint16_t bits() const { return bits_; }

    /** Widen to float (exact). */
    float toFloat() const { return halfBitsToFloat(bits_); }

    Half operator+(Half o) const { return Half(toFloat() + o.toFloat()); }
    Half operator-(Half o) const { return Half(toFloat() - o.toFloat()); }
    Half operator*(Half o) const { return Half(toFloat() * o.toFloat()); }
    Half operator/(Half o) const { return Half(toFloat() / o.toFloat()); }

    bool operator==(Half o) const { return toFloat() == o.toFloat(); }
    bool operator<(Half o) const { return toFloat() < o.toFloat(); }

  private:
    std::uint16_t bits_;
};

/** Round a float through half precision and back. */
inline float
roundToHalf(float f)
{
    return halfBitsToFloat(floatToHalfBits(f));
}

} // namespace edgert

#endif // EDGERT_COMMON_HALF_HH

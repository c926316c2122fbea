/**
 * @file
 * HBM-PIM die area model (PAPI paper Section 6.1, Eq. 3).
 *
 * The total area of m banks, each paired with n FPUs, must fit in a
 * single HBM die:   m * (n * A_FPU + A_bank) <= A_max.
 * Constants come from CACTI-3DD at 22 nm as quoted in the paper:
 * A_bank = 0.83 mm^2, A_FPU = 0.1025 mm^2, A_max = 121 mm^2.
 */

#ifndef PAPI_PIM_AREA_MODEL_HH
#define PAPI_PIM_AREA_MODEL_HH

#include <cstdint>

namespace papi::pim {

/** Die-area accounting for a PIM-enabled HBM die. */
class AreaModel
{
  public:
    /** The paper's CACTI-3DD constants (see the file comment). */
    AreaModel() = default;

    /**
     * @param bank_area_mm2 Area of one bank (array + periphery).
     * @param fpu_area_mm2 Area of one near-bank FPU.
     * @param die_area_mm2 Maximum allowable die area.
     */
    AreaModel(double bank_area_mm2, double fpu_area_mm2,
              double die_area_mm2);

    /** Area of one bank in mm^2. */
    double bankArea() const { return _bankArea; }
    /** Area of one near-bank FPU in mm^2. */
    double fpuArea() const { return _fpuArea; }
    /** Maximum allowable die area in mm^2. */
    double dieArea() const { return _dieArea; }

    /** Die area consumed by @p banks banks with @p fpus_per_bank. */
    double usedArea(std::uint32_t banks, double fpus_per_bank) const;

    /** True if the configuration fits on the die. */
    bool fits(std::uint32_t banks, double fpus_per_bank) const;

    /**
     * Maximum number of banks per die given @p fpus_per_bank FPUs per
     * bank (Eq. 3 solved for m, floored).
     */
    std::uint32_t maxBanksPerDie(double fpus_per_bank) const;

  private:
    double _bankArea = 0.83;  // mm^2, CACTI-3DD @ 22 nm
    double _fpuArea = 0.1025; // mm^2, from AttAcc
    double _dieArea = 121.0;  // mm^2, HBM3 die limit
};

} // namespace papi::pim

#endif // PAPI_PIM_AREA_MODEL_HH

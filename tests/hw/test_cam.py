"""Tests for the CAM-based information base alternative."""


from repro.hdl.simulator import Simulator
from repro.hw.cam import (
    CAM_SEARCH_CYCLES,
    CAMInfoBaseLevel,
    cam_fits,
    cam_logic_elements,
)
from tests.strategies.hw import CAMPins, cam_search, cam_write


def _cam(depth=16):
    sim = Simulator()
    drv = CAMPins(sim)
    cam = CAMInfoBaseLevel(sim, "cam", index_width=20, depth=depth)
    return sim, drv, cam


class TestCAMLevel:
    def test_write_and_match(self):
        sim, drv, cam = _cam()
        cam_write(sim, drv, cam, 100, 500, 2)
        cycles = cam_search(sim, drv, cam, 100)
        assert cam.match_valid.value == 1
        assert cam.match_label.value == 500
        assert cam.match_op.value == 2
        assert cycles == 1  # registered one edge after the key

    def test_miss(self):
        sim, drv, cam = _cam()
        cam_write(sim, drv, cam, 100, 500, 2)
        cam_search(sim, drv, cam, 999)
        assert cam.match_valid.value == 0

    def test_lookup_cost_is_occupancy_independent(self):
        """The CAM's defining property: constant-time match."""
        costs = []
        for n in (1, 8, 16):
            sim, drv, cam = _cam(depth=16)
            for i in range(n):
                cam_write(sim, drv, cam, 100 + i, 500 + i, 2)
            costs.append(cam_search(sim, drv, cam, 100 + n - 1))
        assert len(set(costs)) == 1

    def test_first_match_priority(self):
        sim, drv, cam = _cam()
        cam_write(sim, drv, cam, 100, 500, 2)
        cam_write(sim, drv, cam, 100, 777, 1)
        cam_search(sim, drv, cam, 100)
        assert cam.match_label.value == 500

    def test_done_is_a_pulse(self):
        sim, drv, cam = _cam()
        cam_write(sim, drv, cam, 100, 500, 2)
        cam_search(sim, drv, cam, 100)
        assert cam.done.value == 1
        sim.step()
        assert cam.done.value == 0

    def test_overflow(self):
        sim, drv, cam = _cam(depth=2)
        for i in range(3):
            cam_write(sim, drv, cam, i, i, 0)
        assert cam.count == 2
        assert cam.overflow.value == 1

    def test_reset(self):
        sim, drv, cam = _cam()
        cam_write(sim, drv, cam, 100, 500, 2)
        sim.reset()
        assert cam.count == 0


class TestCAMCost:
    def test_le_estimate_scales_linearly(self):
        assert cam_logic_elements(1024) == 1024 * 20
        assert cam_logic_elements(64) == 64 * 20

    def test_1k_cam_does_not_fit_the_paper_device(self):
        """The design-space point: a 1K-entry, 20-bit CAM wants ~20k
        LEs -- half the EP1S40 -- which is why the paper walks block
        RAM instead."""
        assert not cam_fits(1024)
        assert cam_fits(256)

    def test_constant_definition(self):
        assert CAM_SEARCH_CYCLES == 2

"""Tests for the z-buffered framebuffer."""

import numpy as np
import pytest

from repro.render.framebuffer import Framebuffer


class TestFramebuffer:
    def test_initial_state(self):
        framebuffer = Framebuffer(4, 3)
        assert framebuffer.num_pixels == 12
        assert np.all(framebuffer.color == 0.0)
        assert np.all(np.isinf(framebuffer.depth))

    def test_depth_test_closer_passes(self):
        framebuffer = Framebuffer(4, 4)
        assert framebuffer.depth_test(0, 0, 5.0)
        framebuffer.write(0, 0, 5.0, np.ones(4))
        assert framebuffer.depth_test(0, 0, 3.0)
        assert not framebuffer.depth_test(0, 0, 7.0)

    def test_equal_depth_fails(self):
        framebuffer = Framebuffer(4, 4)
        framebuffer.write(0, 0, 5.0, np.ones(4))
        assert not framebuffer.depth_test(0, 0, 5.0)

    def test_write_updates_color_and_depth(self):
        framebuffer = Framebuffer(4, 4)
        color = np.array([0.2, 0.4, 0.6, 1.0])
        framebuffer.write(2, 1, 3.0, color)
        assert np.allclose(framebuffer.color[1, 2], color)
        assert framebuffer.depth[1, 2] == 3.0

    def test_counters(self):
        framebuffer = Framebuffer(4, 4)
        framebuffer.depth_test(0, 0, 1.0)
        framebuffer.write(0, 0, 1.0, np.ones(4))
        framebuffer.depth_test(0, 0, 2.0)
        assert framebuffer.depth_tests == 2
        assert framebuffer.depth_passes == 1

    def test_clear(self):
        framebuffer = Framebuffer(4, 4)
        framebuffer.write(0, 0, 1.0, np.ones(4))
        framebuffer.clear()
        assert np.all(framebuffer.color == 0.0)
        assert np.all(np.isinf(framebuffer.depth))
        assert framebuffer.depth_tests == 0

    def test_rgb_image_drops_alpha(self):
        framebuffer = Framebuffer(4, 4)
        assert framebuffer.rgb_image().shape == (4, 4, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Framebuffer(0, 4)

    def test_write_batch_last_write_wins(self):
        xs = np.array([1, 2, 1, 0, 1, 2])
        ys = np.array([0, 3, 0, 0, 0, 3])
        zs = np.arange(6, dtype=np.float64) + 1.0
        colors = np.arange(24, dtype=np.float64).reshape(6, 4)
        batched = Framebuffer(4, 4)
        batched.write_batch(xs, ys, zs, colors)
        sequential = Framebuffer(4, 4)
        for index in range(6):
            sequential.write(xs[index], ys[index], zs[index], colors[index])
        assert np.array_equal(batched.color, sequential.color)
        assert np.array_equal(batched.depth, sequential.depth)
        assert batched.depth[0, 1] == 5.0
        assert batched.depth[3, 2] == 6.0

    def test_write_batch_empty(self):
        framebuffer = Framebuffer(4, 4)
        empty = np.empty(0, dtype=np.int64)
        framebuffer.write_batch(empty, empty, np.empty(0), np.empty((0, 4)))
        assert np.all(framebuffer.color == 0.0)
        assert np.all(np.isinf(framebuffer.depth))

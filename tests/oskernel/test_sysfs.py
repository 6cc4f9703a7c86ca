"""Tests for the sysfs-like configuration surface."""

import pytest

from repro.oskernel import SysFS, SysfsError


class TestSysFS:
    def test_plain_value_roundtrip(self):
        fs = SysFS()
        fs.register("sys/class/net/eth0/mtu", initial="1500")
        assert fs.read("/sys/class/net/eth0/mtu") == "1500"
        fs.write("sys/class/net/eth0/mtu", "9000")
        assert fs.read("sys/class/net/eth0/mtu") == "9000"

    def test_unknown_path_raises(self):
        fs = SysFS()
        with pytest.raises(SysfsError):
            fs.read("/nope")
        with pytest.raises(SysfsError):
            fs.write("/nope", "1")

    def test_write_handler_invoked(self):
        fs = SysFS()
        seen = []
        fs.register("/dev/ncap/templates", write=seen.append)
        fs.write("/dev/ncap/templates", "GET,POST")
        assert seen == ["GET,POST"]
        assert fs.read("/dev/ncap/templates") == "GET,POST"

    def test_read_handler_invoked(self):
        fs = SysFS()
        fs.register("/stat/reqcnt", read=lambda: "42")
        assert fs.read("/stat/reqcnt") == "42"

    def test_exists(self):
        fs = SysFS()
        fs.register("/a/b", initial="x")
        assert fs.exists("/a/b")
        assert not fs.exists("/a/c")

    def test_ls_prefix(self):
        fs = SysFS()
        fs.register("/net/eth0/rht", initial="35000")
        fs.register("/net/eth0/rlt", initial="5000")
        fs.register("/cpu/governor", initial="ondemand")
        assert fs.ls("/net/eth0") == ["/net/eth0/rht", "/net/eth0/rlt"]
        assert len(fs.ls()) == 3

    def test_paths_normalized(self):
        fs = SysFS()
        fs.register("x/y", initial="1")
        assert fs.read("/x/y/") == "1"

    def test_write_to_read_only_attribute_raises(self):
        fs = SysFS()
        fs.register("/stat/reqcnt", read=lambda: "42")
        with pytest.raises(SysfsError, match="read-only"):
            fs.write("/stat/reqcnt", "0")
        assert fs.read("/stat/reqcnt") == "42"


class Owner:
    def __init__(self, count):
        self.count = count
        self.mode = "auto"


def set_mode(owner, value):
    owner.mode = value


TABLE = {
    "count": (lambda o: str(o.count), None),
    "mode": (lambda o: o.mode, set_mode),
}


class TestDirectory:
    def test_attributes_resolve_per_owner(self):
        fs = SysFS()
        a, b = Owner(1), Owner(2)
        fs.register_dir("/dev/a", a, TABLE)
        fs.register_dir("dev/b/", b, TABLE)
        assert fs.read("/dev/a/count") == "1"
        assert fs.read("/dev/b/count") == "2"
        fs.write("/dev/b/mode", "manual")
        assert (a.mode, b.mode) == ("auto", "manual")
        assert fs.read("/dev/b/mode") == "manual"

    def test_listing_and_existence(self):
        fs = SysFS()
        fs.register_dir("/dev/a", Owner(1), TABLE)
        fs.register("/dev/a/plain", initial="x")
        assert fs.ls("/dev/a") == ["/dev/a/count", "/dev/a/mode", "/dev/a/plain"]
        assert fs.exists("/dev/a/count")
        assert not fs.exists("/dev/a/other")
        assert not fs.exists("/dev/a")

    def test_read_only_and_unknown_writes_raise(self):
        fs = SysFS()
        owner = Owner(1)
        fs.register_dir("/dev/a", owner, TABLE)
        with pytest.raises(SysfsError, match="read-only"):
            fs.write("/dev/a/count", "5")
        assert owner.count == 1
        with pytest.raises(SysfsError):
            fs.write("/dev/a/other", "5")
        with pytest.raises(SysfsError):
            fs.read("/dev/a/other")

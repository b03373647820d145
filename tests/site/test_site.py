"""Unit tests for site descriptions, filesystems, and GridSite."""

import pytest

from repro.net import Network, Topology
from repro.simkernel import Simulator
from repro.site import Filesystem, FilesystemError, GridSite, SiteDescription


class TestSiteDescription:
    def test_rank_is_deterministic(self):
        d1 = SiteDescription(name="innsbruck", processor_speed_mhz=3000)
        d2 = SiteDescription(name="innsbruck", processor_speed_mhz=3000)
        assert d1.rank_hashcode() == d2.rank_hashcode()

    def test_rank_differs_between_sites(self):
        ranks = {
            SiteDescription(name=f"site{i}").rank_hashcode() for i in range(50)
        }
        assert len(ranks) == 50

    def test_rank_sensitive_to_static_attrs(self):
        base = SiteDescription(name="x", memory_mb=1024)
        more = SiteDescription(name="x", memory_mb=2048)
        assert base.rank_hashcode() != more.rank_hashcode()

    def test_constraints_satisfied(self):
        d = SiteDescription(name="s", platform="Intel", os="Linux", arch="32bit")
        assert d.satisfies({"platform": "Intel", "os": "linux"})
        assert not d.satisfies({"os": "Solaris"})
        assert not d.satisfies({"gpu": "yes"})

    def test_extra_constraints(self):
        d = SiteDescription(name="s", extra={"mpi": "openmpi"})
        assert d.satisfies({"mpi": "openmpi"})
        assert not d.satisfies({"mpi": "mpich"})

    def test_info_document(self):
        doc = SiteDescription(name="s1", processors=8).to_info_document()
        assert doc.get("name") == "s1"
        assert doc.findtext("Processors") == "8"

    def test_validation(self):
        with pytest.raises(ValueError):
            SiteDescription(name="")
        with pytest.raises(ValueError):
            SiteDescription(name="x", processors=0)


class TestFilesystem:
    def test_mkdir_and_put(self):
        fs = Filesystem()
        fs.mkdir_p("/opt/app/bin")
        assert fs.is_dir("/opt/app/bin")
        fs.put_file("/opt/app/bin/run", size=100, executable=True)
        assert fs.exists("/opt/app/bin/run")
        assert fs.get_file("/opt/app/bin/run").executable

    def test_parents_created_implicitly(self):
        fs = Filesystem()
        fs.put_file("/a/b/c/file.txt", size=1)
        assert fs.is_dir("/a/b/c")

    def test_relative_path_rejected(self):
        fs = Filesystem()
        with pytest.raises(FilesystemError):
            fs.mkdir_p("relative/path")

    def test_path_normalization(self):
        fs = Filesystem()
        fs.put_file("/a//b/../c/./f", size=5)
        assert fs.exists("/a/c/f")

    def test_file_dir_collisions(self):
        fs = Filesystem()
        fs.mkdir_p("/d")
        with pytest.raises(FilesystemError):
            fs.put_file("/d", size=1)
        fs.put_file("/f", size=1)
        with pytest.raises(FilesystemError):
            fs.mkdir_p("/f")

    def test_listdir(self):
        fs = Filesystem()
        fs.put_file("/top/a", size=1)
        fs.put_file("/top/sub/b", size=1)
        assert fs.listdir("/top") == ["a", "sub"]

    def test_rmtree(self):
        fs = Filesystem()
        fs.put_file("/app/bin/x", size=1)
        fs.put_file("/app/lib/y", size=1)
        removed = fs.rmtree("/app")
        assert removed == 2
        assert not fs.exists("/app/bin/x")
        assert not fs.is_dir("/app")

    def test_find_executables_in_bin(self):
        fs = Filesystem()
        fs.put_file("/opt/povray/bin/povray", size=10, executable=True)
        fs.put_file("/opt/povray/bin/README", size=1, executable=False)
        fs.put_file("/opt/povray/lib/helper", size=1, executable=True)
        found = fs.find_executables("/opt/povray")
        assert [f.name for f in found] == ["povray"]

    def test_expand_archive(self):
        fs = Filesystem()
        fs.put_file("/tmp/app.tgz", size=1000)
        created = fs.expand_archive(
            "/tmp/app.tgz",
            "/opt/app",
            [("bin/run", 500, True), ("doc/readme", 10, False)],
        )
        assert len(created) == 2
        assert fs.get_file("/opt/app/bin/run").executable

    def test_expand_missing_archive_raises(self):
        fs = Filesystem()
        with pytest.raises(FilesystemError):
            fs.expand_archive("/tmp/nothing.tgz", "/opt/x", [])

    def test_disk_usage(self):
        fs = Filesystem()
        fs.put_file("/a", size=10)
        fs.put_file("/b", size=32)
        assert fs.disk_usage() == (2, 42)


class TestGridSite:
    def make_site(self, name="s1"):
        sim = Simulator()
        net = Network(sim, Topology())
        return GridSite(net, SiteDescription(name=name))

    def test_default_env_and_dirs(self):
        site = self.make_site()
        assert site.fs.is_dir(site.env["DEPLOYMENT_DIR"])
        assert site.fs.is_dir(site.env["GLOBUS_SCRATCH_DIR"])
        assert site.env["GLOBUS_LOCATION"] == "/opt/globus"

    def test_env_substitution(self):
        site = self.make_site()
        out = site.substitute_env("$DEPLOYMENT_DIR/povray")
        assert out == "/opt/deployments/povray"

    def test_env_substitution_with_extra(self):
        site = self.make_site()
        out = site.substitute_env(
            "$POVRAY_HOME/bin", extra={"POVRAY_HOME": "/opt/deployments/povray"}
        )
        assert out == "/opt/deployments/povray/bin"

    def test_fail_and_recover(self):
        site = self.make_site()
        assert site.online
        site.network.faults.crash(site.name)
        assert not site.online
        site.network.faults.restart(site.name)
        assert site.online

    def test_rank_matches_description(self):
        site = self.make_site()
        assert site.rank() == site.description.rank_hashcode()

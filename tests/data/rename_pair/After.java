import org.junit.Test;
import static org.junit.Assert.*;

public class CacheTest {
    @Test
    public void getReturnsStoredValue() {
        Cache cache = new Cache();
        cache.put("k", 1);
        assertEquals(1, cache.get("k"));
    }

    @Test
    public void testEvictsOldestEntryWhenFull() {
        Cache cache = new Cache(2);
        cache.put("a", 1);
        cache.put("b", 2);
        cache.put("c", 3);
        assertNull(cache.get("a"));
    }

    @Test
    public void testSizeIsZeroAfterClear() {
        Cache cache = new Cache();
        cache.putAll(java.util.Map.of("x", 7, "y", 8));
        cache.clear();
        assertEquals(0, cache.size());
    }

    @Test
    public void testUnchanged() {
        assertTrue(new Cache().isEmpty());
    }
}
